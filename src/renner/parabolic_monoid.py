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

On a lattice window every linear side of a check (a point pairing
non-negatively with a set of vectors) is the point set of one cone, walked
once by ``cones.enumerate_points``; the box loop then tests membership in
that set.  The wedge monoid is contained in its cone, so ``monoid_contains``
runs only on the window points of the wedge cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cones import (
    LatticeMonoid,
    RationalCone,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    is_saturated,
    monoid_contains,
)
from .linalg import lattice_box
from .reports import CheckReport, instance_label
from .root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    chamber_walker,
    dominance_leq,
    positive_coroots,
    weyl_orbit,
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

    @cached_property
    def walker(self):
        """The chamber walker of the Levi subset, the one that
        ``chamber_walker`` shares per datum and subset, read at the first
        use; a bad Levi subset raises ValueError then."""
        return chamber_walker(self.datum, self.levi)


def build_parabolic(datum: RootDatum, levi: LeviSubset) -> ParabolicData:
    """Assemble the wedge monoid generators and the Renner cone generators."""
    datum.check_levi(levi)
    outside = [c.coords for c in positive_coroots(datum)
               if any(c.coords[i - 1] for i in datum.weight_basis_labels
                      if i not in levi)]
    pos_up = LatticeMonoid(datum.dim, outside)

    orbit = {w.coords for i in datum.weight_basis_labels
             for w in weyl_orbit(datum, levi, datum.fundamental_weight(i))}
    for k in range(datum.central_rank):
        cw = datum.central_weight(k)
        orbit.add(cw.coords)
        orbit.add((-cw).coords)
    renner = tuple(Weight(c) for c in sorted(orbit))
    return ParabolicData(datum, levi, pos_up, renner)


@lru_cache(maxsize=None)
def renner_monoid(pd: ParabolicData) -> LatticeMonoid:
    """The monoid the Renner generators span.  It owns the Renner cone, so
    the saturation check and everything that reads the cone share one
    canonicalisation per instance."""
    return LatticeMonoid(pd.datum.dim, [w.coords for w in pd.renner_generators])


def renner_cone(pd: ParabolicData) -> RationalCone:
    return renner_monoid(pd).cone()


def in_wm_dominant(pd: ParabolicData, v: Weight) -> bool:
    """Whether the weight lies in the Levi-Weyl orbit of the dominant cone.

    One chamber walk, by the walker that ``pd`` keeps: the Levi-dominant
    representative must be dominant for the whole diagram.  Central
    coordinates are unconstrained.
    """
    rep = pd.walker(v.coords)
    return all(x >= 0 for x in rep[:pd.datum.rank])


def cartan_closure_semigroup(pd: ParabolicData) -> tuple[Weight, ...]:
    """Minimal generating set of the lattice points of the Renner cone (the
    weight semigroup of the closed Cartan inside the Levi monoid)."""
    basis = hilbert_basis(renner_cone(pd))
    return tuple(Weight(b) for b in basis)


# Window of the bounded saturation check, run only past the Hilbert bound.
SATURATION_HEIGHT_BOUND = 3


def default_height_bound(datum: RootDatum) -> int:
    """4 for ambient dimension up to 2, 3 above (full windows stay fast)."""
    return 4 if datum.dim <= 2 else 3


def _levi_root_cone(pd: ParabolicData, sign: int) -> RationalCone:
    """The coweights whose pairing with each Levi simple root, times sign,
    is non-negative: the halfspaces are the Levi columns of the Cartan
    matrix, zero on the central coordinates (sign 1 gives the Levi-dominant
    coweights, sign -1 the Levi-anti-dominant ones)."""
    datum = pd.datum
    c, rank = datum.cartan_matrix, datum.rank
    pad = (0,) * datum.central_rank
    return RationalCone.from_halfspaces(datum.dim, [
        tuple(sign * c[r][i - 1] for r in range(rank)) + pad
        for i in pd.levi.nodes])


def check_duality(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the dual of the wedge-monoid cone is the Renner cone,
    both canonically and pointwise on a lattice window.

    On the window a point lies on the pairing side when it pairs
    non-negatively with every wedge generator: the window points of the cone
    those generators cut out, walked once.  The raw generators keep this side
    apart from the double description behind the canonical comparison."""
    report = CheckReport("duality", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    dual_of_wedge = dual_cone(pd.pos_up.cone())
    if dual_of_wedge != renner_cone(pd):
        report.add_counterexample({
            "kind": "cone-mismatch",
            "dual_of_wedge": [list(g) for g in dual_of_wedge.canonical_generators()],
            "orbit_cone": [list(g) for g in renner_cone(pd).canonical_generators()],
        })
    pairing = set(enumerate_points(
        RationalCone.from_halfspaces(pd.datum.dim, pd.pos_up.generators), height_bound))
    for coords in lattice_box(pd.datum.dim, height_bound):
        v = Weight(coords)
        orbit_side = in_wm_dominant(pd, v)
        pairing_side = coords in pairing
        if orbit_side != pairing_side:
            report.add_counterexample({
                "kind": "lattice-mismatch",
                "vector": list(coords),
                "orbit_member": orbit_side,
                "pairs_nonnegative": pairing_side,
            })
    return report


def check_intersection_lemma(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the wedge cone equals the intersection of the Weyl
    translates of the positive cone, at cone level and on a lattice window,
    together with the shared anti-dominant slice of the two monoids.

    The statement ranges over the elements w of W_L, which fix the central
    block: w.v lies in the positive monoid exactly when v has no central
    part and <w^-1 omega_i, v> >= 0 for every i, since row i of w's coweight
    matrix is the weight w^-1 omega_i.  Over W_L these forms are the orbits
    of the fundamental weights, so with both signs of the central unit
    vectors they are the Renner generators, and no group element is
    enumerated.  Both sides are decided on them: the cone side by one double
    description, the lattice side as the window points of that cone.  On the
    wedge side ``monoid_contains`` runs only on the window points of the
    wedge cone, and the anti-dominant slice is the window points of the cone
    of the negated Levi columns of the Cartan matrix."""
    rank, dim = pd.datum.rank, pd.datum.dim
    report = CheckReport("posU", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    meet = RationalCone.from_halfspaces(dim, [w.coords for w in pd.renner_generators])
    if meet != pd.pos_up.cone():
        report.add_counterexample({
            "kind": "cone-mismatch",
            "intersection": [list(g) for g in meet.canonical_generators()],
            "wedge_cone": [list(g) for g in pd.pos_up.cone().canonical_generators()],
        })
    translates = set(enumerate_points(meet, height_bound))
    wedge_cone = set(enumerate_points(pd.pos_up.cone(), height_bound))
    anti_dominant = set(enumerate_points(_levi_root_cone(pd, -1), height_bound))
    for coords in lattice_box(dim, height_bound):
        in_wedge = coords in wedge_cone and monoid_contains(pd.pos_up, coords)
        in_translates = coords in translates
        if in_wedge != in_translates:
            report.add_counterexample({
                "kind": "lattice-mismatch",
                "vector": list(coords),
                "wedge_member": in_wedge,
                "translate_member": in_translates,
            })
            continue
        if coords in anti_dominant:
            in_positive = all(x >= 0 for x in coords[:rank]) and not any(coords[rank:])
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
    member (in the Levi dominance order) is again a member.

    The Levi-dominant window points are the window points of the cone of
    the Levi columns of the Cartan matrix, walked once in window order, and
    ``monoid_contains`` runs only on those that the wedge cone's walk also
    holds.  Coweights comparable in that order agree off the Levi nodes, so
    each member is compared only with the Levi-dominant points of its
    bucket, kept in window order."""
    datum, levi = pd.datum, pd.levi
    report = CheckReport("wthull", pd.instance(), f"window:h{height_bound}", True)
    dominant = [Coweight(c) for c in enumerate_points(_levi_root_cone(pd, 1), height_bound)]
    wedge_cone = set(enumerate_points(pd.pos_up.cone(), height_bound))
    members = {v.coords for v in dominant
               if v.coords in wedge_cone and monoid_contains(pd.pos_up, v.coords)}
    off_levi = [j for j in range(datum.dim) if j + 1 not in levi]

    def bucket_key(coords):
        return tuple(coords[j] for j in off_levi)

    buckets: dict[tuple[int, ...], list[Coweight]] = {}
    for v in dominant:
        buckets.setdefault(bucket_key(v.coords), []).append(v)
    for upper_coords in members:
        upper = Coweight(upper_coords)
        for lower in buckets[bucket_key(upper_coords)]:
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
    """Verify that the orbit monoid is saturated (the exact Hilbert certificate
    when affordable, else the h3 window) and that every Hilbert basis element
    lies in the orbit of the dominant cone."""
    cert = is_saturated(renner_monoid(pd), SATURATION_HEIGHT_BOUND)
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
