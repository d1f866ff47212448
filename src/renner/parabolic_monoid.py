"""The wedge monoid of a parabolic and the Renner cone of its Levi monoid.

For a Levi subset of the Dynkin diagram this module builds

* the monoid of coweights spanned by the positive coroots outside the Levi
  (``pos_up``), and
* the cone generated by the Levi-Weyl orbit of the dominant weights
  (the Renner cone), whose lattice points it can test, saturate and
  generate.

The verification routines check, mechanically and over exact arithmetic,
that the two sides are dual, that the wedge monoid is an intersection of
Weyl translates of the positive cone, that dominance truncation preserves
membership, and that the orbit monoid is saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cones import (
    LatticeMonoid,
    RationalCone,
    dual_cone,
    hilbert_basis,
    intersect,
    is_saturated,
    monoid_contains,
)
from .linalg import IntVec, lattice_box
from .reports import CheckReport, instance_label
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    act,
    chamber_walk,
    coweight_is_dominant,
    dominance_leq,
    positive_coroots,
    weyl_group,
)


@dataclass(frozen=True)
class ParabolicData:
    """Combinatorial data attached to a Levi subset of a root datum."""

    datum: RootDatum
    levi: LeviSubset
    pos_up: LatticeMonoid
    renner_generators: tuple[Weight, ...]

    def instance(self) -> dict:
        return instance_label(self.datum.type_string, self.levi.nodes)


def build_parabolic(datum: RootDatum, levi: LeviSubset) -> ParabolicData:
    """Assemble the wedge monoid generators and the Renner cone generators."""
    datum.check_levi(levi)
    rank = datum.rank
    levi_positions = {i - 1 for i in levi.nodes}
    outside = []
    for coroot in positive_coroots(datum):
        support = {j for j in range(rank) if coroot.coords[j] != 0}
        if not support <= levi_positions:
            outside.append(coroot.coords)
    pos_up = LatticeMonoid(datum.dim, outside)

    orbit: set[IntVec] = set()
    group = weyl_group(datum, levi)
    for i in datum.weight_basis_labels:
        fw = datum.fundamental_weight(i)
        for w in group:
            orbit.add(act(w, fw).coords)
    for k in range(datum.central_rank):
        cw = datum.central_weight(k)
        orbit.add(cw.coords)
        orbit.add((-cw).coords)
    renner = tuple(Weight(c) for c in sorted(orbit))
    return ParabolicData(datum, levi, pos_up, renner)


@lru_cache(maxsize=None)
def renner_cone(pd: ParabolicData) -> RationalCone:
    return RationalCone.from_generators(
        pd.datum.dim, [w.coords for w in pd.renner_generators])


def in_wm_dominant(pd: ParabolicData, v: Weight) -> bool:
    """Whether the weight lies in the Levi-Weyl orbit of the dominant cone.

    Constant-time test: the Levi-dominant representative must be dominant
    for the whole diagram.  Central coordinates are unconstrained.
    """
    rep = chamber_walk(pd.datum, v.coords, pd.levi)
    return all(x >= 0 for x in rep[:pd.datum.rank])


def cartan_closure_semigroup(pd: ParabolicData) -> tuple[Weight, ...]:
    """Minimal generating set of the lattice points of the Renner cone (the
    weight semigroup of the closed Cartan inside the Levi monoid)."""
    basis = hilbert_basis(renner_cone(pd))
    return tuple(Weight(b) for b in basis)


# Window of the bounded saturation check, run before the Hilbert certificate.
SATURATION_HEIGHT_BOUND = 3


def default_height_bound(datum: RootDatum) -> int:
    """4 for ambient dimension up to 2, 3 above (full windows stay fast)."""
    return 4 if datum.dim <= 2 else 3


def check_duality(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the dual of the wedge-monoid cone is the Renner cone,
    both canonically and pointwise on a lattice window."""
    report = CheckReport("duality", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    dual_of_wedge = dual_cone(pd.pos_up.cone())
    if dual_of_wedge != renner_cone(pd):
        report.add_counterexample({
            "kind": "cone-mismatch",
            "dual_of_wedge": [list(g) for g in dual_of_wedge.canonical_generators()],
            "orbit_cone": [list(g) for g in renner_cone(pd).canonical_generators()],
        })
    gens = pd.pos_up.generators
    for coords in lattice_box(pd.datum.dim, height_bound):
        v = Weight(coords)
        orbit_side = in_wm_dominant(pd, v)
        pairing_side = all(
            sum(a * b for a, b in zip(coords, g)) >= 0 for g in gens)
        if orbit_side != pairing_side:
            report.add_counterexample({
                "kind": "lattice-mismatch",
                "vector": list(coords),
                "orbit_member": orbit_side,
                "pairs_nonnegative": pairing_side,
            })
    return report


def _in_positive_monoid(datum: RootDatum, v: Coweight) -> bool:
    rank = datum.rank
    return (all(x >= 0 for x in v.coords[:rank])
            and not any(v.coords[rank:]))


def check_intersection_lemma(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the wedge cone equals the intersection of the Weyl
    translates of the positive cone, at cone level and on a lattice window,
    together with the shared anti-dominant slice of the two monoids."""
    datum, levi = pd.datum, pd.levi
    report = CheckReport("posU", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    group = weyl_group(datum, levi)
    translates = []
    for w in group:
        gens = [act(w, datum.simple_coroot(i)).coords
                for i in datum.weight_basis_labels]
        translates.append(RationalCone.from_generators(datum.dim, gens))
    meet = intersect(translates)
    if meet != pd.pos_up.cone():
        report.add_counterexample({
            "kind": "cone-mismatch",
            "intersection": [list(g) for g in meet.canonical_generators()],
            "wedge_cone": [list(g) for g in pd.pos_up.cone().canonical_generators()],
        })
    for coords in lattice_box(datum.dim, height_bound):
        v = Coweight(coords)
        in_wedge = monoid_contains(pd.pos_up, coords)
        in_translates = all(
            _in_positive_monoid(datum, act(w, v)) for w in group)
        if in_wedge != in_translates:
            report.add_counterexample({
                "kind": "lattice-mismatch",
                "vector": list(coords),
                "wedge_member": in_wedge,
                "translate_member": in_translates,
            })
            continue
        anti_dominant = coweight_is_dominant(datum, -v, levi)
        if anti_dominant:
            in_positive = _in_positive_monoid(datum, v)
            if in_wedge != in_positive:
                report.add_counterexample({
                    "kind": "anti-dominant-slice-mismatch",
                    "vector": list(coords),
                    "wedge_member": in_wedge,
                    "positive_member": in_positive,
                })
    return report


def check_weight_hull(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify downward closure: a Levi-dominant coweight below a wedge-monoid
    member (in the Levi dominance order) is again a member."""
    datum, levi = pd.datum, pd.levi
    report = CheckReport("wthull", pd.instance(), f"window:h{height_bound}", True)
    window = [Coweight(c) for c in lattice_box(datum.dim, height_bound)]
    dominant = [v for v in window if coweight_is_dominant(datum, v, levi)]
    members = {v.coords for v in dominant if monoid_contains(pd.pos_up, v.coords)}
    for upper_coords in members:
        upper = Coweight(upper_coords)
        for lower in dominant:
            if lower.coords == upper_coords:
                continue
            if dominance_leq(datum, lower, upper, levi):
                if lower.coords not in members:
                    report.add_counterexample({
                        "kind": "hull-violation",
                        "upper": list(upper_coords),
                        "lower": list(lower.coords),
                    })
    return report


def check_saturation(pd: ParabolicData) -> CheckReport:
    """Verify that the orbit monoid is saturated, demanding the exact Hilbert
    certificate when affordable, and that every Hilbert basis element lies in
    the orbit of the dominant cone."""
    monoid = LatticeMonoid(pd.datum.dim, [w.coords for w in pd.renner_generators])
    cert = is_saturated(monoid, SATURATION_HEIGHT_BOUND)
    report = CheckReport("saturation", pd.instance(), cert.level, True)
    if not cert.saturated:
        report.add_counterexample({
            "kind": "not-saturated",
            "vector": list(cert.counterexample),
        })
        return report
    for b in cert.hilbert_basis or ():
        if not in_wm_dominant(pd, Weight(b)):
            report.add_counterexample({
                "kind": "hilbert-element-outside-orbit",
                "vector": list(b),
            })
    return report
