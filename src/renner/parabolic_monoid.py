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

The monoids are normal, so the lattice statements of duality, posU and
wthull follow, on all of Z^dim, from a few facts about cones and from the
saturation of the wedge monoid (every element of the wedge cone's Hilbert
basis is a member, as ``cones.is_saturated`` tests; Bruns and Ichim,
"Normaliz: algorithms for affine monoids and rational cones", 2010).  The
cone facts are chamber facts, and each is decided by dominance arithmetic
on the generators and canonical halfspaces that the instance already
holds: sign tests, dot products, and Levi chamber walks, each of which adds
a non-negative sum of Levi simple roots to the vector it walks.  No
certificate builds a cone, and the Renner cone is read off the wedge cone
when four such facts prove it the wedge cone's dual
(``_renner_cone_is_wedge_dual``), so the three checks, when their
certificates hold, run one double description per instance: the wedge
cone's.
Each of the three checks runs its cone side, then tests its certificate's
facts; when the cone side found nothing and every fact holds, no window
point can be a counterexample and the passing report is returned with its
usual level string.  Otherwise the lattice window is walked, only to list
the counterexamples.  On the window every linear side of a check (a point
pairing non-negatively with a set of vectors) is the point set of one cone,
walked once by ``cones.enumerate_points``; the box loop then tests
membership in that set.  The wedge monoid is contained in its cone, so
``monoid_contains`` runs only on the window points of the wedge cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import budgets
from .cones import (
    LatticeMonoid,
    RationalCone,
    enumerate_points,
    hilbert_basis,
    is_saturated,
    monoid_contains,
)
from .errors import BudgetExceededError
from .linalg import dot, identity_matrix, lattice_box, vec_neg
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
    """Combinatorial data attached to a Levi subset of a root datum.

    ``build_parabolic`` shares one instance per datum and subset, so what
    an instance computes on first use serves every later check and call:
    the wedge monoid's cone, windows, membership memo and saturation, the
    Renner monoid, the chamber walker, and the two chamber facts that the
    Renner cone's seeding shares with the duality and posU certificates.
    ``weight_sets`` maps a highest weight to its ``repr_weights.WeightSet``;
    levi-restriction fills it on the full Levi's instance with the full
    weight sets that every Levi subset filters."""

    datum: RootDatum
    levi: LeviSubset
    pos_up: LatticeMonoid
    renner_generators: tuple[Weight, ...]
    weight_sets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def instance(self) -> dict:
        return instance_label(self.datum.type_string, self.levi.nodes)

    @cached_property
    def walker(self):
        """The chamber walker of the Levi subset, the one that
        ``chamber_walker`` shares per datum and subset, read at the first
        use; a bad Levi subset raises ValueError then."""
        return chamber_walker(self.datum, self.levi)

    @cached_property
    def renner_monoid(self) -> LatticeMonoid:
        """The monoid the Renner generators span.  It owns the Renner cone,
        so the saturation check and everything that reads the cone share one
        canonicalisation per instance.  When ``_renner_cone_is_wedge_dual``
        proves the Renner cone equal to the dual of the wedge cone, the cone
        is read off the wedge cone's canonical forms
        (``RationalCone.from_dual``) and runs no double description of its
        own; otherwise it runs one, of the Renner generators."""
        gens = [w.coords for w in self.renner_generators]
        if _renner_cone_is_wedge_dual(self):
            return LatticeMonoid(self.datum.dim, gens,
                                 cone=RationalCone.from_dual(self.pos_up.cone()))
        return LatticeMonoid(self.datum.dim, gens)

    @cached_property
    def renner_levi_stable(self) -> bool:
        """Whether each Levi simple reflection v -> v - v_j alpha_j maps the
        Renner generators into themselves, so that the Renner cone is
        W_L-stable."""
        gens = {w.coords for w in self.renner_generators}
        return all(tuple(x - g[j] * a for x, a in zip(g, alpha)) in gens
                   for j, alpha in _levi_roots(self) for g in gens)

    @cached_property
    def wedge_forms_walk_dominant(self) -> bool:
        """Whether the walker takes each canonical halfspace of the wedge
        cone to a weight that is non-negative on the rank coordinates."""
        rank, walk = self.datum.rank, self.walker
        return not any(x < 0 for h in self.pos_up.cone().canonical_halfspaces()
                       for x in walk(h)[:rank])

    @cached_property
    def wedge_saturated(self) -> bool:
        """Whether the wedge monoid holds every lattice point of its cone:
        each element of the cone's Hilbert basis is tested by
        ``monoid_contains``, which answers for a wedge generator by a set
        lookup and searches only for the other elements (on the fleet there
        are none).  False past the Hilbert dimension bound, so the checks
        that read it walk their windows; a search that runs out of nodes
        raises."""
        try:
            basis = hilbert_basis(self.pos_up.cone())
        except BudgetExceededError:
            return False
        return all(monoid_contains(self.pos_up, b) for b in basis)


def build_parabolic(datum: RootDatum, levi: LeviSubset) -> ParabolicData:
    """The wedge monoid generators and the Renner cone generators of a Levi
    subset, in the one instance shared per datum and subset.  Every call
    checks the subset, then the largest coroot orbit and the largest orbit
    of a fundamental weight against ``budgets.weyl_cap()``, so a budget
    lowered after the instance was built still applies."""
    datum.check_levi(levi)
    positive_coroots(datum)  # checks the coroot orbits against the cap
    pd, largest = _parabolic(datum, levi)
    budgets.check_weyl_cap(largest)
    return pd


@lru_cache(maxsize=None)
def _parabolic(datum: RootDatum, levi: LeviSubset) -> tuple[ParabolicData, int]:
    outside = [c.coords for c in positive_coroots(datum)
               if any(c.coords[i - 1] for i in datum.weight_basis_labels
                      if i not in levi)]
    pos_up = LatticeMonoid(datum.dim, outside)

    orbits = [weyl_orbit(datum, levi, datum.fundamental_weight(i))
              for i in datum.weight_basis_labels]
    found = {w.coords for orbit in orbits for w in orbit}
    for k in range(datum.central_rank):
        cw = datum.central_weight(k)
        found.add(cw.coords)
        found.add((-cw).coords)
    renner = tuple(Weight(c) for c in sorted(found))
    return ParabolicData(datum, levi, pos_up, renner), max(map(len, orbits), default=0)


def renner_cone(pd: ParabolicData) -> RationalCone:
    return pd.renner_monoid.cone()


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


def _levi_roots(pd: ParabolicData) -> list[tuple[int, tuple[int, ...]]]:
    """Each Levi node's 0-based position j with its simple root alpha_j in
    weight coordinates, in node order."""
    return [(i - 1, pd.datum.simple_root(i).coords) for i in pd.levi.sorted_nodes()]


def _levi_root_cone(pd: ParabolicData, sign: int) -> RationalCone:
    """The coweights whose pairing with each Levi simple root, times sign,
    is non-negative: the halfspaces are the Levi columns of the Cartan
    matrix, zero on the central coordinates (sign 1 gives the Levi-dominant
    coweights, sign -1 the Levi-anti-dominant ones)."""
    return RationalCone.from_halfspaces(pd.datum.dim, [
        tuple(sign * x for x in alpha) for _, alpha in _levi_roots(pd)])


def _renner_cone_is_wedge_dual(pd: ParabolicData) -> bool:
    """The facts that prove the Renner cone R equal to the dual W^v of the
    wedge cone W with no double description of R, cheapest first:

    * (a) every Renner generator pairs non-negatively with every wedge
      generator, so R lies in W^v;
    * (b1) the Renner generators hold the generators of the dominant cone
      D: each unit vector of the rank coordinates, and both signs of each
      central one, so D lies in R;
    * (b2) the Renner generators are Levi-stable, so R is W_L-stable;
    * (b3) the walk of each canonical halfspace h of W (the canonical
      generators of W^v) is non-negative on the rank coordinates: it lies
      in D, so h lies in W_L.D, and by (b1) and (b2) in R.

    Without (b1) and (b2), (b3) proves nothing about R: on A2 with the
    empty Levi subset, the quadrant as the wedge cone and the ray of
    omega_2 as the Renner cone satisfy (a) and (b3)."""
    rank, dim = pd.datum.rank, pd.datum.dim
    gens = {w.coords for w in pd.renner_generators}
    if any(dot(r, g) < 0 for g in pd.pos_up.generators for r in gens):
        return False
    eye = identity_matrix(dim)
    if any(e not in gens for e in eye[:rank]):
        return False
    if any(e not in gens or vec_neg(e) not in gens for e in eye[rank:]):
        return False
    return pd.renner_levi_stable and pd.wedge_forms_walk_dominant


def _duality_certified(pd: ParabolicData) -> bool:
    """The facts that, with the Renner cone R equal to the dual of the wedge
    cone, decide duality's lattice side on all of Z^dim: each Levi simple
    reflection v -> v - v_j alpha_j maps the Renner generators into
    themselves, so R is W_L-stable, and R meets the Levi-dominant chamber
    {x_j >= 0 for j in L} in the dominant cone D.  That meet is decided by
    sign tests: every Renner generator is non-negative at each node off the
    Levi subset, so the meet lies in D, and each canonical halfspace of R is
    non-negative on the unit vectors of the rank coordinates and zero on the
    central block, so D, which those unit vectors and both signs of the
    central ones generate, lies in R.  The chamber walk of a weight v ends
    at a Levi-dominant w.v, which lies in R exactly when v does, and then
    exactly when it is dominant."""
    rank = pd.datum.rank
    if not pd.renner_levi_stable:
        return False
    outside = [i for i in range(rank) if i + 1 not in pd.levi]
    if any(w.coords[i] < 0 for w in pd.renner_generators for i in outside):
        return False
    return all(all(x >= 0 for x in h[:rank]) and not any(h[rank:])
               for h in renner_cone(pd).canonical_halfspaces())


def _intersection_certified(pd: ParabolicData) -> bool:
    """The facts that, with the translate cone equal to the wedge cone W,
    decide posU's lattice side and anti-dominant slice on all of Z^dim: the
    wedge monoid is saturated, so it holds exactly the lattice points of
    W, and W meets the Levi-anti-dominant cone A where the positive orthant
    O with zero central block does.  That meet is decided by sign tests and
    chamber walks: every wedge generator lies in O, so W meets A inside O;
    and the walk of each canonical halfspace h of W, which is h plus a
    non-negative sum of Levi simple roots, is non-negative on the rank
    coordinates.  A Levi simple root pairs non-positively with A, so h
    pairs non-negatively with O meet A, which therefore lies in W."""
    rank = pd.datum.rank
    if any(any(x < 0 for x in g[:rank]) or any(g[rank:]) for g in pd.pos_up.generators):
        return False
    return pd.wedge_forms_walk_dominant and pd.wedge_saturated


def _weight_hull_certified(pd: ParabolicData) -> bool:
    """The facts that decide wthull on all of Z^dim: the wedge monoid is
    saturated, and for each canonical halfspace h of the wedge cone the
    lowered form h' = -walk(-h) pairs non-negatively with every wedge
    generator.  The walk adds a non-negative sum of Levi simple roots, so
    h' is h minus such a sum: it is non-positive at every Levi node, and on
    the Levi-dominant cone h' <= h.  So K, the wedge cone meet the
    Levi-dominant cone, is cut out by the Levi walls and the forms h'.  A
    Levi-dominant mu below a member lambda of K differs from it by a
    non-negative sum of Levi simple coroots, so h'.mu >= h'.lambda >= 0
    for each h': mu lies in K, and by saturation in the monoid."""
    walk, gens = pd.walker, pd.pos_up.generators
    for h in pd.pos_up.cone().canonical_halfspaces():
        lowered = vec_neg(walk(vec_neg(h)))
        if any(dot(lowered, g) < 0 for g in gens):
            return False
    return pd.wedge_saturated


def check_duality(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the dual of the wedge-monoid cone is the Renner cone,
    both canonically and pointwise on a lattice window.

    The canonical halfspaces of a cone are the canonical generators of its
    dual, so the cone side compares the wedge cone's canonical halfspaces
    with the Renner cone's canonical generators, the forms that the shared
    instance keeps and that posU reads from the other side.  When they agree
    and ``_duality_certified`` holds, the pointwise statement holds on all
    of Z^dim and the window is not walked.  On the window a point lies on
    the pairing side when it pairs non-negatively with every wedge
    generator: the window points of the cone those generators cut out,
    walked once.  The raw generators keep this side apart from the double
    description behind the canonical comparison."""
    report = CheckReport("duality", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    dual_of_wedge = pd.pos_up.cone().canonical_halfspaces()
    orbit_cone = renner_cone(pd).canonical_generators()
    if dual_of_wedge != orbit_cone:
        report.add_counterexample({
            "kind": "cone-mismatch",
            "dual_of_wedge": [list(g) for g in dual_of_wedge],
            "orbit_cone": [list(g) for g in orbit_cone],
        })
    elif _duality_certified(pd):
        return report
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
    enumerated.  Both sides are decided on them.  The cone they cut out is
    the dual of the Renner cone, so the cone side compares the Renner cone's
    canonical halfspaces with the wedge cone's canonical generators, the
    forms that the shared instance keeps and that duality reads from the
    other side.  The lattice side is the window points of that cone, built
    from the raw Renner generators only when the window is walked.  On the
    wedge side ``monoid_contains`` runs only on the window points of the
    wedge cone, and the anti-dominant slice is the window points of the cone
    of the negated Levi columns of the Cartan matrix.  The window is walked
    only when the cones differ or ``_intersection_certified`` fails."""
    rank, dim = pd.datum.rank, pd.datum.dim
    report = CheckReport("posU", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    intersection = renner_cone(pd).canonical_halfspaces()
    wedge = pd.pos_up.cone().canonical_generators()
    if intersection != wedge:
        report.add_counterexample({
            "kind": "cone-mismatch",
            "intersection": [list(g) for g in intersection],
            "wedge_cone": [list(g) for g in wedge],
        })
    elif _intersection_certified(pd):
        return report
    meet = RationalCone.from_halfspaces(dim, [w.coords for w in pd.renner_generators])
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
    bucket, kept in window order.  The window is walked only when
    ``_weight_hull_certified`` fails."""
    datum, levi = pd.datum, pd.levi
    report = CheckReport("wthull", pd.instance(), f"window:h{height_bound}", True)
    if _weight_hull_certified(pd):
        return report
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
    cert = is_saturated(pd.renner_monoid, SATURATION_HEIGHT_BOUND)
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
