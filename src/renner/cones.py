"""Rational polyhedral cones and affine monoids, over exact integers.

Cones carry both a generator (V) and a halfspace (H) representation.  The
conversion in both directions is the double description method, run with
integer arithmetic.  Canonical form: the lineality lattice is presented by
its Hermite normal form basis, extreme rays are reduced to primitive
integer representatives with the lineality pivot coordinates zeroed out,
and everything is sorted lexicographically, so cone equality is list
equality of canonical generators.  A cone built from generators or
halfspaces runs one double description, of the vectors it was given, for
the canonical form of the other side, and reads the given side's canonical
form off that one by the same rule for generators and halfspaces: the
lineality lattice is the integer kernel of the other side's canonical
vectors, and a given vector spans an extreme ray exactly when its set of
tight vectors on the other side is inclusion-maximal among the given
vectors outside the lineality space (``_facets`` with rays and forms
swapped; Fukuda and Prodon, "Double description method revisited", 1996).
A cone built by ``RationalCone.from_dual`` runs none: it takes both
canonical forms, swapped, from a cone it is dual to.

Hilbert bases follow Bruns and Ichim, "Normaliz: algorithms for affine
monoids and rational cones" (J. Algebra 2010).  A cone with a lineality space
is split into the lineality lattice and its pointed quotient; a pointed cone
of lower rank is solved in coordinates of its span's lattice.  The pointed
full-dimensional core (1) triangulates the cone by pulling, using only the
cone's ray/facet incidence: the face lattice of a pointed cone is coatomic
(Ziegler, "Lectures on Polytopes", ch. 2), so its facets are the
inclusion-maximal proper tight sets of the valid forms, and the facets of a
face F are the inclusion-maximal proper sets F & G over the cone's facets G,
with no rank computed, (2) lists the lattice points of each simplex's
half-open fundamental parallelepiped as the group Z^r / <rays>, one point per
coset of a Hermite normal form box, with integer arithmetic, and (3) reduces
the candidates in increasing degree, the sum of the facet forms, against the
elements already accepted.

``monoid_contains`` answers for zero and for a generator by a set lookup,
and decides any other vector by a depth-first search over the generators.
``is_saturated`` tests the Hilbert basis elements of the monoid's cone, so
a monoid whose generators include that basis is certified with no search:
every wedge and Renner monoid that ``renner verify`` saturates on the
fleet is such a monoid.

``enumerate_points`` lists the lattice points of a max-norm window by a
depth-first lexicographic walk, pruned as in the project-and-lift
enumeration of Normaliz 3 (Bruns, Ichim, Söger et al.): the next coordinate
is bounded to the interval that the remaining coordinates can still repair,
from one partial sum per halfspace over the fixed prefix.  The last
coordinate's interval is exact, so the walk, ``_window_walk``, yields the
cone's points of the window in the same order as a filter of the whole box,
without visiting the box.  The same walk lists the points of a sublattice
given by a square row Hermite normal form basis: each coordinate steps by
its pivot from the residue that its prefix fixes, so points off the lattice
are never visited.  Given a list of origins it walks the translated cone
o + C over the coset o + L of the lattice once per origin o, starting each
walk from o's partial sums and lattice offsets (``vinberg`` walks the
second weights above each dominant weight so).

Caches are filled idempotently (compute, then assign), which keeps
concurrent first computation safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import budgets
from .errors import BudgetExceededError, InternalError, SearchBudgetExceededError
from .linalg import (
    IntVec,
    adjugate_and_det,
    coset_reduce,
    dot,
    identity_matrix,
    integer_kernel,
    integer_preimage,
    lattice_member,
    mat_vec,
    primitive,
    reduce_mod_subspace,
    row_hnf,
    transpose,
    vec_neg,
    vec_sub,
)


def _double_description(halfspaces: list[IntVec], dim: int) -> list[IntVec]:
    """Extreme rays of {x : h.x >= 0 for all h}, modulo its lineality space.

    Rays come out as primitive integer vectors, one per minimal proper face:
    a halfspace that cuts the lineality space turns one lineality direction
    into a ray, and any other halfspace combines only adjacent pairs (no third
    ray tight wherever both are), which yields no redundant ray (Fukuda and
    Prodon, "Double description method revisited", 1996).
    """
    lin: list[IntVec] = list(identity_matrix(dim))
    rays: list[IntVec] = []
    processed: list[IntVec] = []

    def zeroset(v: IntVec) -> frozenset[int]:
        return frozenset(k for k, h in enumerate(processed) if dot(h, v) == 0)

    for a in halfspaces:
        idx = next((k for k, b in enumerate(lin) if dot(a, b) != 0), None)
        if idx is not None:
            # The constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest are adjusted into the hyperplane.
            b0 = lin[idx]
            if dot(a, b0) < 0:
                b0 = vec_neg(b0)
            d0 = dot(a, b0)
            others = [b for k, b in enumerate(lin) if k != idx]
            lin = [
                primitive(tuple(d0 * x - dot(a, b) * y for x, y in zip(b, b0)))
                for b in others
            ]
            rays = [
                primitive(tuple(d0 * x - dot(a, r) * y for x, y in zip(r, b0)))
                for r in rays
            ]
            rays.append(primitive(b0))
        else:
            plus = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            minus = [r for r in rays if dot(a, r) < 0]
            if minus:
                zsets = {r: zeroset(r) for r in rays}
                combos: list[IntVec] = []
                for rp in plus:
                    for rm in minus:
                        common = zsets[rp] & zsets[rm]
                        adjacent = not any(
                            r is not rp and r is not rm and common <= zsets[r]
                            for r in rays
                        )
                        if adjacent:
                            combo = tuple(
                                dot(a, rp) * x - dot(a, rm) * y
                                for x, y in zip(rm, rp)
                            )
                            if any(combo):
                                combos.append(primitive(combo))
                rays = plus + zero + combos
        rays = list(dict.fromkeys(rays))
        processed.append(a)
    return rays


class RationalCone:
    """A finitely generated convex rational polyhedral cone.

    Construct with :meth:`from_generators` or :meth:`from_halfspaces`, never
    both.  The other side's canonical form is computed on demand by one
    double description of the given vectors, and the given side's is read
    off it (``_read_off``); both are cached.  :meth:`from_dual` builds the
    dual of a cone from that cone's canonical forms, with no double
    description.
    """

    def __init__(self, ambient_dim: int, *, generators=None, halfspaces=None):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        cap = budgets.DEFAULT_DUAL_DIM
        if ambient_dim > cap:
            raise BudgetExceededError(
                f"ambient dimension {ambient_dim} exceeds bound {cap}")
        if (generators is None) == (halfspaces is None):
            raise ValueError("need generators or halfspaces, not both")
        self.ambient_dim = ambient_dim
        self._raw_generators = self._clean(generators) if generators is not None else None
        self._raw_halfspaces = self._clean(halfspaces) if halfspaces is not None else None
        self._canonical_generators: tuple[IntVec, ...] | None = None
        self._canonical_halfspaces: tuple[IntVec, ...] | None = None
        self._lineality: tuple[IntVec, ...] | None = None
        self._extreme: tuple[IntVec, ...] | None = None
        self._point_cache: dict[int, tuple[IntVec, ...]] = {}

    @classmethod
    def from_generators(cls, ambient_dim: int, generators) -> "RationalCone":
        return cls(ambient_dim, generators=generators)

    @classmethod
    def from_halfspaces(cls, ambient_dim: int, halfspaces) -> "RationalCone":
        return cls(ambient_dim, halfspaces=halfspaces)

    @classmethod
    def from_dual(cls, dual: "RationalCone") -> "RationalCone":
        """The cone dual to ``dual``, with no double description of its own:
        its canonical generators are the canonical halfspaces of ``dual``
        and its canonical halfspaces, which it is built from, are the
        canonical generators of ``dual``.  Its extreme rays and lineality
        lattice are the canonical data of those generators under those
        halfspaces (``_canonical_data``).  When some canonical generator of
        ``dual`` pairs negatively with one of its canonical halfspaces, or
        that data's generators differ from the canonical halfspaces of
        ``dual``, the two canonical forms of ``dual`` are not dual to each
        other, and InternalError is raised.  That no facet is missing from
        the halfspaces is not checked."""
        forms, gens = dual.canonical_generators(), dual.canonical_halfspaces()
        for g in forms:
            h = next((h for h in gens if dot(g, h) < 0), None)
            if h is not None:
                raise InternalError("the canonical forms of a cone are not dual: "
                                    f"{list(g)} . {list(h)} < 0")
        cone = cls(dual.ambient_dim, halfspaces=forms)
        extreme, lattice, canonical = cone._canonical_data(forms, gens)
        if canonical != gens:
            raise InternalError("the canonical forms of a cone are not dual: "
                                f"{list(canonical)} != {list(gens)}")
        cone._extreme, cone._lineality = extreme, lattice
        cone._canonical_generators, cone._canonical_halfspaces = gens, forms
        return cone

    def _clean(self, vectors) -> tuple[IntVec, ...]:
        out = []
        for v in vectors:
            t = tuple(int(x) for x in v)
            if len(t) != self.ambient_dim:
                raise ValueError("vector dimension mismatch")
            if any(t):
                out.append(t)
        return tuple(dict.fromkeys(out))

    # -- representations ----------------------------------------------------

    @property
    def halfspaces(self) -> tuple[IntVec, ...]:
        """A valid H-representation (possibly redundant)."""
        if self._raw_halfspaces is not None:
            return self._raw_halfspaces
        return self.canonical_halfspaces()

    def _dual_data_from(self, constraints) -> tuple[tuple[IntVec, ...], ...]:
        """Canonical data of {x : c.x >= 0}, by a double description: the
        extreme rays, the HNF basis of the lineality lattice, and the
        canonical generators (the rays together with both signs of each
        primitive lineality vector, sorted)."""
        cons = sorted(set(primitive(c) for c in constraints if any(c)))
        return self._canonical_data(cons, _double_description(cons, self.ambient_dim))

    def _read_off(self, forms, vectors) -> tuple[tuple[IntVec, ...], ...]:
        """The canonical data of ``_dual_data_from`` for the cone that
        ``vectors`` generate, read off ``forms``, the canonical generators of
        its dual, with no double description.  A vector spans an extreme ray
        exactly when its set of tight forms is inclusion-maximal (``_facets``
        with vectors and forms swapped); the vectors tight on every form lie
        in the lineality space and drop out."""
        return self._canonical_data(forms, _facets(forms, vectors).values())

    def _canonical_data(self, forms, rays) -> tuple[tuple[IntVec, ...], ...]:
        """The canonical data of the cone that ``forms`` cut out, from a
        vector on each of its extreme rays: the lineality lattice is the
        integer kernel of the forms."""
        if forms:
            lattice = tuple(integer_kernel(forms, self.ambient_dim))
        else:
            lattice = identity_matrix(self.ambient_dim)
        zero = tuple([0] * self.ambient_dim)
        canon = {reduce_mod_subspace(r, lattice) for r in rays} - {zero}
        lines = {primitive(u) for b in lattice for u in (b, vec_neg(b))}
        return tuple(sorted(canon)), lattice, tuple(sorted(canon | lines))

    def canonical_generators(self) -> tuple[IntVec, ...]:
        """Primitive integer generators in canonical (sorted) order."""
        if self._canonical_generators is None:
            if self._raw_generators is not None:
                data = self._read_off(self.canonical_halfspaces(), self._raw_generators)
            else:
                data = self._dual_data_from(self._raw_halfspaces)
            self._extreme, self._lineality, self._canonical_generators = data
        return self._canonical_generators

    def canonical_halfspaces(self) -> tuple[IntVec, ...]:
        """Canonical H-representation: the canonical generators of the dual."""
        if self._canonical_halfspaces is None:
            if self._raw_generators is not None:
                _, _, canonical = self._dual_data_from(self._raw_generators)
                self._raw_halfspaces = canonical
            else:
                _, _, canonical = self._read_off(self.canonical_generators(),
                                                 self._raw_halfspaces)
            self._canonical_halfspaces = canonical
        return self._canonical_halfspaces

    def extreme_rays(self) -> tuple[IntVec, ...]:
        if self._extreme is None:
            self.canonical_generators()
        return self._extreme

    def lineality_lattice(self) -> tuple[IntVec, ...]:
        """HNF basis of the integer points of the maximal linear subspace."""
        if self._lineality is None:
            self.canonical_generators()
        return self._lineality

    # -- predicates ----------------------------------------------------------

    def contains(self, v) -> bool:
        coords = tuple(int(x) for x in v)
        if len(coords) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        return all(dot(h, coords) >= 0 for h in self.halfspaces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalCone):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.canonical_generators() == other.canonical_generators())

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.canonical_generators()))

    def __repr__(self) -> str:
        return (f"RationalCone(dim={self.ambient_dim}, "
                f"generators={list(self.canonical_generators())})")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "generators": [list(g) for g in self.canonical_generators()],
            "halfspaces": [list(h) for h in self.canonical_halfspaces()],
        }


def dual_cone(c: RationalCone) -> RationalCone:
    """The dual cone {y : g.y >= 0 for all generators g of c}.

    It runs its own double description of c's canonical halfspaces rather
    than ``RationalCone.from_dual``, which trusts them: taking the dual
    twice is then an independent round trip through two double
    descriptions, which the tests compare with the cone itself."""
    return RationalCone.from_generators(c.ambient_dim, c.canonical_halfspaces())


def enumerate_points(c: RationalCone, height_bound: int) -> tuple[IntVec, ...]:
    """All lattice points of the cone with max-norm <= height_bound, in
    lexicographic order.  Cached on the cone per bound.

    The window is walked depth first, one coordinate at a time, keeping a
    partial sum s_h of each halfspace h over the fixed prefix.  At depth k
    the remaining coordinates can add at most B * sum_{i>k} |h_i| (B the
    bound), so x_k must satisfy s_h + h_k x_k + B * sum_{i>k} |h_i| >= 0:
    a lower bound on x_k when h_k > 0, an upper bound when h_k < 0, and a
    cut of the whole prefix when h_k = 0 and the inequality fails.  Every
    point of the cone passes these tests, and at the last coordinate the
    slack is zero, so the interval holds exactly the prefix's points of the
    cone.  Walking each interval upwards yields them in lexicographic order.
    """
    points = c._point_cache.get(height_bound)
    if points is None:
        points = tuple(_window_walk(c.halfspaces, c.ambient_dim, height_bound))
        c._point_cache[height_bound] = points
    return points


def _window_walk(halfspaces: tuple[IntVec, ...], dim: int, bound: int,
                 lattice: tuple[IntVec, ...] | None = None,
                 origins: list[IntVec] | None = None):
    """The points x with max-norm <= bound and h.x >= 0 for every h, in
    lexicographic order (see ``enumerate_points``).

    With ``lattice``, a square row Hermite normal form basis H, only the
    points of its integer row span: x_k then steps by the pivot p_k from the
    residue that the prefix fixes, x_k = sum_{i<k} y_i H[i][k] mod p_k with
    y_i the prefix's coordinates in the basis.  Entries above a pivot lie in
    [0, p_k), so only the columns with p_k > 1 carry that offset.

    With ``origins``, a list of points o, the result is an iterator that
    walks each origin in turn when it is reached and yields the list of the
    points x with max-norm <= bound and h.(x - o) >= 0 for every h, in
    lexicographic order, and with ``lattice`` only those of the coset
    o + span H; a caller that drops each list before taking the next holds
    one origin's points at a time.  An origin moves only the start of the
    walk: its partial sums start at -h.o, and its lattice offsets at the
    canonical representative of o modulo H, which is 0 on every column with
    p_k = 1.  The origins share the set-up (``vinberg`` walks the second
    weights above each dominant weight so)."""
    if bound < 0:
        raise ValueError("height bound must be non-negative")
    rows = sorted(set(halfspaces))
    pivots = [1] * dim if lattice is None else [row[k] for k, row in enumerate(lattice)]
    carried = [j for j in range(dim) if pivots[j] > 1]
    levels = []
    for k in range(dim):
        # lift: (slot, entry) of each carried column right of k that row k of
        # the basis reaches, to add y_k * entry to that column's offset.
        lift = tuple((m, lattice[k][j]) for m, j in enumerate(carried)
                     if j > k and lattice[k][j])
        levels.append((tuple(h[k] for h in rows),
                       tuple(bound * sum(map(abs, h[k + 1:])) for h in rows),
                       pivots[k], carried.index(k) if pivots[k] > 1 else None, lift))
    prefix = [0] * dim
    last = dim - 1

    def walk(k: int, sums, offsets, out: list) -> None:
        column, room, step, slot, lift = levels[k]
        lo, hi = -bound, bound
        for a, s, t in zip(column, sums, room):
            r = s + t
            if a > 0:
                if -(r // a) > lo:
                    lo = -(r // a)
            elif a < 0:
                if r // -a < hi:
                    hi = r // -a
            elif r < 0:
                return
        offset = 0
        if step > 1:
            offset = offsets[slot]
            lo += (offset - lo) % step
        if k == last:
            for x in range(lo, hi + 1, step):
                prefix[k] = x
                out.append(tuple(prefix))
            return
        for x in range(lo, hi + 1, step):
            prefix[k] = x
            child = [s + a * x for s, a in zip(sums, column)]
            if lift:
                moved = list(offsets)
                y = (x - offset) // step
                for m, entry in lift:
                    moved[m] += y * entry
                walk(k + 1, child, moved, out)
            else:
                walk(k + 1, child, offsets, out)

    def points(origin: IntVec) -> list:
        residue = origin if lattice is None else coset_reduce(origin, lattice)
        walked: list = []
        walk(0, [-dot(h, origin) for h in rows], [residue[j] for j in carried], walked)
        return walked

    if origins is None:
        return points((0,) * dim)
    return map(points, origins)


# ---------------------------------------------------------------------------
# Lattice monoids

class LatticeMonoid:
    """The monoid of non-negative integer combinations of a generating set.

    Generators are deduplicated and sorted but never rescaled: the monoid
    generated by (2, 0) is not the monoid generated by (1, 0).  They are
    also kept as a set, so ``monoid_contains`` answers for a generator by
    one lookup.
    """

    def __init__(self, ambient_dim: int, generators, *, cone: RationalCone | None = None):
        """``cone``, when given, is the cone of the generators, which the
        caller has proved to be so; otherwise it is built from them on first
        use."""
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        gens = []
        for g in generators:
            t = tuple(int(x) for x in g)
            if len(t) != ambient_dim:
                raise ValueError("generator dimension mismatch")
            if any(t):
                gens.append(t)
        self._generator_set = frozenset(gens)
        self.generators = tuple(sorted(self._generator_set))
        self._cone = cone
        self._units_hnf: tuple[IntVec, ...] | None = None
        self._search_gens: tuple[IntVec, ...] | None = None
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"LatticeMonoid(dim={self.ambient_dim}, generators={list(self.generators)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeMonoid):
            return NotImplemented
        return (self.ambient_dim, self.generators) == (other.ambient_dim, other.generators)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.generators))

    def cone(self) -> RationalCone:
        if self._cone is None:
            self._cone = RationalCone.from_generators(self.ambient_dim, self.generators)
        return self._cone

    def _split_units(self) -> None:
        # Generators inside the lineality space span the monoid's group of
        # units; combinations of the rest stay pointed modulo that group.
        cone = self.cone()
        unit_gens = [g for g in self.generators
                     if cone.contains(g) and cone.contains(vec_neg(g))]
        self._units_hnf = tuple(row_hnf(unit_gens, self.ambient_dim)) if unit_gens else ()
        unit_set = set(unit_gens)
        self._search_gens = tuple(g for g in self.generators if g not in unit_set)

    def units_contains(self, v: IntVec) -> bool:
        if self._units_hnf is None:
            self._split_units()
        if not any(v):
            return True
        if not self._units_hnf:
            return False
        return lattice_member(v, self._units_hnf)

    def search_generators(self) -> tuple[IntVec, ...]:
        if self._search_gens is None:
            self._split_units()
        return self._search_gens


def monoid_contains(m: LatticeMonoid, v) -> bool:
    """Exact membership of an integer vector in the monoid.

    Zero and the generators are members outright, with no cone test and no
    search: the saturation certificates query Hilbert basis elements, and
    on the fleet every one of them is a generator of its monoid.  Any other
    vector is decided by a depth-first search over combinations of the
    non-unit generators, pruned by membership of the residual in the rational cone, with residuals
    tested against the unit lattice.  Terminates because every subtraction
    strictly decreases a linear functional that is positive on the cone away
    from its lineality.  Raises SearchBudgetExceededError when the node
    budget (``budgets.search_nodes()``) runs out, which is distinct from a
    False answer.

    The search runs on an explicit stack (window scans can be deep) and
    memoizes decided states on the monoid across calls.
    """
    coords = tuple(int(x) for x in v)
    if len(coords) != m.ambient_dim:
        raise ValueError("vector dimension mismatch")
    if not any(coords) or coords in m._generator_set:
        return True
    cone = m.cone()
    if not cone.contains(coords):
        return False
    budget = budgets.search_nodes()
    gens = m.search_generators()
    halfspaces = cone.halfspaces
    memo = m._memo
    nodes = 0

    def enter(residual: IntVec, start: int, stack: list):
        """Memo hit gives the answer; otherwise a frame is pushed (None)."""
        nonlocal nodes
        hit = memo.get((residual, start))
        if hit is not None:
            return hit
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceededError(
                f"monoid membership search exceeded {budget} nodes")
        if m.units_contains(residual):
            memo[(residual, start)] = True
            return True
        stack.append([residual, start, start])
        return None

    stack: list = []
    first = enter(coords, 0, stack)
    if first is not None:
        return first
    while stack:
        frame = stack[-1]
        residual, start, j = frame
        suspended = False
        result = False
        while j < len(gens):
            child = vec_sub(residual, gens[j])
            if all(dot(h, child) >= 0 for h in halfspaces):
                sub = enter(child, j, stack)
                if sub is None:
                    frame[2] = j  # resume here once the child resolves
                    suspended = True
                    break
                if sub:
                    result = True
                    break
            j += 1
        if suspended:
            continue
        memo[(residual, start)] = result
        stack.pop()
    return memo[(coords, 0)]


# ---------------------------------------------------------------------------
# Hilbert bases

def _maximal(sets) -> list[frozenset[int]]:
    """The inclusion-maximal members of ``sets``, once each, in first-seen
    order."""
    distinct = list(dict.fromkeys(sets))
    return [s for s in distinct if not any(s < t for t in distinct)]


def _facets(rays: list[IntVec], forms) -> dict[frozenset[int], IntVec]:
    """The facets of the pointed cone spanned by rays that valid forms cut
    out: each facet's set of tight ray indices, mapped to the first form that
    is tight on it, in first-seen order.  Every proper face lies in a facet
    (the face lattice is coatomic), so the facets are exactly the
    inclusion-maximal tight sets other than the set of all rays."""
    tight: dict[frozenset[int], IntVec] = {}
    for f in forms:
        tight.setdefault(frozenset(i for i, r in enumerate(rays) if dot(f, r) == 0), f)
    tight.pop(frozenset(range(len(rays))), None)
    return {s: tight[s] for s in _maximal(tight)}


def _pulling_triangulation(count: int, facets, rank: int) -> list[tuple[int, ...]]:
    """Simplices (sorted ray indices) of the pulling triangulation of the
    cone over rays 0 .. count - 1, of rank ``rank``.  A face with more rays
    than its rank is the union of the cones over its first ray and the
    simplices of its facets that miss that ray.  The facets of a face F are
    the inclusion-maximal sets F & G over the cone's facets G that do not
    contain F, so the cone's own ray/facet incidence is all it needs."""
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def triangulate(face: frozenset[int], k: int) -> list[tuple[int, ...]]:
        if len(face) == k:
            return [tuple(sorted(face))]
        hit = memo.get(face)
        if hit is not None:
            return hit
        apex = min(face)
        out: list[tuple[int, ...]] = []
        for sub in _maximal(face & g for g in facets if not face <= g):
            if apex not in sub:
                out.extend((apex,) + s for s in triangulate(sub, k - 1))
        memo[face] = out
        return out

    return triangulate(frozenset(range(count)), rank)


def _parallelepiped_points(simplex: list[IntVec]) -> list[IntVec]:
    """The lattice points of the half-open parallelepiped
    {sum t_i s_i : 0 <= t_i < 1} of independent s_i in Z^k (k of them), as
    the group Z^k / <s_i>, in integers only.  The box over the pivots of the
    Hermite normal form of the s_i lists each coset once; a coset
    representative y has coefficients y adj / det, and their fractional
    parts give its point.  Exactly |det| points, zero included."""
    try:
        adj, det = adjugate_and_det(simplex)
    except ValueError as exc:
        raise InternalError(f"singular simplex {simplex}") from exc
    if det < 0:
        adj, det = tuple(vec_neg(row) for row in adj), -det
    k = len(simplex)
    hnf = row_hnf(simplex, k)
    cols = transpose(adj)
    points = []
    for y in itertools.product(*[range(hnf[i][i]) for i in range(k)]):
        t = [dot(y, col) % det for col in cols]
        scaled = [sum(ti * s[j] for ti, s in zip(t, simplex)) for j in range(k)]
        if any(x % det for x in scaled):
            raise InternalError(f"group point {scaled}/{det} is not integral")
        points.append(tuple(x // det for x in scaled))
    return points


def _hilbert_full(rays: list[IntVec], forms) -> list[IntVec]:
    """Hilbert basis of the lattice points of a full-dimensional pointed cone
    given by its extreme rays (primitive) and valid forms.

    Candidates are the rays and the group points of every simplex of a
    pulling triangulation.  They are taken in increasing degree, the sum of
    the facet forms, which is positive on the cone away from zero, so an
    element is reducible exactly when it dominates, on every facet form, an
    element already accepted.  The facets and the triangulation read the
    ray/facet incidence alone: every face is a set of ray indices, decided by
    inclusion, and no rank is computed."""
    rank = len(rays[0])
    facets = _facets(rays, forms)
    candidates = set(rays)
    for simplex in _pulling_triangulation(len(rays), facets, rank):
        candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
    candidates.discard(tuple([0] * rank))
    normals = list(facets.values())
    values = {p: tuple(dot(f, p) for f in normals) for p in candidates}
    basis: list[IntVec] = []
    accepted: list[IntVec] = []
    for p in sorted(candidates, key=lambda p: (sum(values[p]), p)):
        vp = values[p]
        if not any(all(x >= y for x, y in zip(vp, va)) for va in accepted):
            basis.append(p)
            accepted.append(vp)
    return basis


def _hilbert_pointed(rays: list[IntVec], forms, dim: int) -> list[IntVec]:
    """Hilbert basis of the lattice points of a pointed cone in Z^dim given
    by its extreme rays and valid forms.  A cone of lower rank is solved in
    coordinates of a basis of the lattice Z^dim meet its span."""
    if not rays:
        return []
    normals = integer_kernel(rays, dim)
    if not normals:
        return _hilbert_full(sorted(rays), forms)
    span = integer_kernel(normals, dim)
    cols = transpose(span)
    coords = []
    for r in rays:
        y = integer_preimage(cols, r, len(span))
        if y is None:
            raise InternalError(f"ray {r} is outside the lattice of its span")
        coords.append(y)
    span_forms = [mat_vec(span, f) for f in forms]
    return [mat_vec(cols, y) for y in _hilbert_full(sorted(coords), span_forms)]


def hilbert_basis(c: RationalCone) -> tuple[IntVec, ...]:
    """The minimal generating set of the monoid of lattice points of the cone.

    Non-pointed cones are split along the maximal linear subspace: the result
    is the HNF basis of the lineality lattice with both signs, together with
    canonical lifts of the Hilbert basis of the pointed quotient.
    """
    cap = budgets.DEFAULT_HILBERT_DIM
    if c.ambient_dim > cap:
        raise BudgetExceededError(
            f"dimension {c.ambient_dim} exceeds Hilbert bound {cap}")
    lattice = c.lineality_lattice()
    rays = c.extreme_rays()
    out: set[IntVec] = set()
    for b in lattice:
        out.add(b)
        out.add(vec_neg(b))
    if rays:
        if lattice:
            # proj maps Z^dim onto the quotient lattice; section holds a lift
            # of each quotient unit vector, so a form h of the cone (which
            # vanishes on the lineality) reads h.(section q) on the quotient.
            dim = c.ambient_dim
            proj = integer_kernel(lattice, dim)
            section = [integer_preimage(proj, e, dim)
                       for e in identity_matrix(len(proj))]
            if None in section:
                raise InternalError("quotient lift failed")
            qrays = [primitive(mat_vec(proj, r)) for r in rays]
            qrays = [q for q in dict.fromkeys(qrays) if any(q)]
            qforms = [tuple(dot(h, s) for s in section) for h in c.halfspaces]
            cols = transpose(section)
            for q in _hilbert_pointed(qrays, qforms, len(proj)):
                out.add(coset_reduce(mat_vec(cols, q), lattice))
        else:
            out.update(_hilbert_pointed(list(rays), c.halfspaces, c.ambient_dim))
    return tuple(sorted(out))


@dataclass(frozen=True)
class SaturationCertificate:
    """Outcome of a saturation check, with the certificate level achieved.

    ``hilbert_basis`` is the Hilbert basis of the monoid's cone when it was
    affordable, else None; a failing exact certificate carries it too.
    """

    saturated: bool
    level: str  # "exact" (Hilbert certificate) or "bounded:h<N>"
    counterexample: IntVec | None = None
    hilbert_basis: tuple[IntVec, ...] | None = None

    def __bool__(self) -> bool:
        return self.saturated


def is_saturated(m: LatticeMonoid, height_bound: int) -> SaturationCertificate:
    """Check that the monoid contains every lattice point of its cone.

    Candidates are the cone's Hilbert basis when affordable (level ``exact``:
    all members certify saturation outright), else the window points up to
    ``height_bound`` (``bounded:h<N>``); the first non-member is returned.
    Each is tested by ``monoid_contains``, so a Hilbert basis element that
    is a generator costs one set lookup and only the others are searched.
    """
    cone = m.cone()
    try:
        basis = hilbert_basis(cone)
        level, candidates = "exact", basis
    except BudgetExceededError:
        basis, level = None, f"bounded:h{height_bound}"
        candidates = enumerate_points(cone, height_bound)
    for p in candidates:
        if not monoid_contains(m, p):
            return SaturationCertificate(False, level, p, basis)
    return SaturationCertificate(True, level, hilbert_basis=basis)
