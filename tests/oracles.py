"""Independent oracle computations used to derive and pin expected values.

Everything here is deliberately written against different primitives than
the library: root systems are realized in Euclidean coordinates with exact
Fractions, cone membership goes through exhaustive vertex search, and
monoid membership through bounded exhaustive combination search.  The
exceptions are former library routines kept as references:
``weyl_group_by_products`` builds each Weyl element as a product of
reflection matrices where the library reflects the matrices' columns, as
``dominant_representative_by_products`` does for the witness of a chamber
walk, and the oracles below that enumerate a Weyl group take it from there;
``hilbert_basis_by_box_scan`` shares the library's double description but
none of its triangulation or group enumeration, ``weyl_orbit_by_group``
and ``pair_cone_halfspaces_by_group`` apply every element of the enumerated
Weyl group where the library walks orbits on coordinates,
``enumerate_points_by_filter`` tests every point of the window box where the
library walks a pruned lexicographic tree,
``lattice_pairs_by_double_solve`` keeps the cone's window points whose
difference solves in the root lattice where the library walks the second
weights above each dominant weight in rank n, ``pair_window_by_pairs``
walks the pair lattice (``pair_lattice``) under the cone's 2n-dimensional
halfspaces, as the library did before it walked in rank n, and keeps the
window's pairs flat, one support each, where the library keeps first-weight
blocks of second weights that it shares per dominant weight,
``check_image_by_double_solve`` solves each pair's root coordinates twice,
once to keep the pair and once per distinct difference to evaluate it at
the idempotent point, ``project_idempotent_by_halfspaces`` tests a pair
against the pair cone's 2n-dimensional halfspaces where the library tests
second - first+ by the n positive-root functionals,
``check_weight_hull_by_all_pairs`` compares each wedge monoid member with
every Levi-dominant window point where the library compares it only with
the points that agree with it off the Levi nodes,
``check_intersection_lemma_by_group`` applies every element of the enumerated
Levi-Weyl group to each window point and intersects one translate cone per
element where the library decides both sides on the Renner generators, the
orbits of the fundamental weights, ``check_duality_pointwise`` pairs each window point
with every wedge generator where the library walks the window points of the
cone those generators cut out, ``_extreme_filter`` re-checks each ray of the double description with a rank
computation, as the library did before it relied on the adjacency test,
``dual_weyl_weights_by_reflection_closure`` closes the descent's weights
under the Levi reflections where the library takes root steps alone,
``check_cor_uinv_by_full_descent`` tests containment on every U(P)-invariant
weight and exhaustion by lookup in that set, where the library descends
through the Levi-dominant invariant weights by positive roots and tests each
orbit weight by the membership predicate, and
``check_finite_type_by_all_minors`` tests every principal minor, each by
``determinant``, the library's former Bareiss determinant, where the library
reads the leading ones off one elimination pass.  ``check_duality_by_window``,
``check_intersection_lemma_by_window`` and ``check_weight_hull_by_window``
are the library's former window checks, which walk the lattice window on
every call, where the library first tries each lemma's cone certificate and
walks the window only when a fact of it fails.  They keep the former cone
sides of duality and posU: the dual of the wedge cone rebuilt by
``dual_cone``, and the cone the Renner generators cut out, where the library
compares the wedge and Renner cones' own canonical forms;
``check_duality_by_dual_cone`` and ``check_intersection_lemma_by_meet``
gate the library's certificates on those rebuilt cones.
``duality_certified_by_cones``, ``intersection_certified_by_cones`` and
``weight_hull_certified_by_cones`` are the library's former cone
certificates, which compare two cones built from halfspaces (``meets_as``)
where the library decides the same chamber facts by sign tests and Levi
chamber walks on the generators and canonical halfspaces it holds.
``canonical_data_by_second_description`` finds a cone's canonical
generators, extreme rays and lineality lattice by a second double
description of its canonical halfspaces, and
``canonical_halfspaces_by_second_description`` its canonical halfspaces by
a second double description of its canonical generators, where the library
reads the side a cone was given by off the canonical vectors of the other.
``is_saturated_window_first``
is the library's former saturation check, which always walks the window and
then tests the Hilbert basis where the library tests the basis alone and
walks the window only past the Hilbert bound.  ``rational_inverse`` is
the library's former Fraction Gauss-Jordan inverse, which the box scan
below uses, where the library divides the adjugate by the determinant, and
``row_hnf_transform`` the library's former Hermite elimination, which keeps
the transform in a second matrix where the library carries it as extra
columns of one.  ``facets_by_rank`` and ``pulling_triangulation_by_rank``
accept a face of a Hilbert-basis triangulation only after a rank test, where
the library decides faces by inclusion of ray sets.  ``act``,
``chamber_walk``, ``intersect``, ``coweight_is_dominant``, ``pr_off_levi``,
``saturated_hull_by_window`` and ``invariant_weights_by_descent`` are former
public helpers of the library that no command calls.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from fractions import Fraction
from operator import sub

from renner.cones import (
    LatticeMonoid,
    RationalCone,
    SaturationCertificate,
    _window_walk,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    monoid_contains,
)
from renner import budgets
from renner.errors import BudgetExceededError, InternalError
from renner.linalg import (
    IntMat,
    IntVec,
    coset_reduce,
    dot,
    identity_matrix,
    integer_kernel,
    integer_preimage,
    lattice_box,
    mat_vec,
    matrix_rank,
    primitive,
    row_hnf,
    transpose,
    vec_neg,
    vec_sub,
)
from renner.parabolic_monoid import (
    ParabolicData,
    _duality_certified,
    _intersection_certified,
    _levi_root_cone,
    _levi_roots,
    in_wm_dominant,
    renner_cone,
)
from renner.reports import CheckReport
from renner.repr_weights import WeightSet, _descend, _is_member, _simple_roots
from renner.root_datum import (
    Coweight,
    LeviSubset,
    RootDatum,
    Weight,
    WeylElement,
    chamber_walker,
    dominance_leq,
    integral_root_coordinates,
    is_dominant,
    weyl_orbit,
)
from renner.vinberg import (
    CpPoint,
    VinbergCone,
    _positive_root_functionals,
    _supported_on_levi,
    eval_at_cp,
    vinberg_cone,
)

Vec = tuple[Fraction, ...]


def _f(x) -> Fraction:
    return Fraction(x)


def inner(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def euclidean_simple_roots(family: str, n: int) -> list[Vec]:
    """Bourbaki realizations of the simple roots, with exact coordinates."""
    if family == "A":
        dim = n + 1
        return [tuple(_f(int(j == i) - int(j == i + 1)) for j in range(dim))
                for i in range(n)]
    if family in ("B", "C", "D"):
        def e(i):
            return tuple(_f(int(j == i)) for j in range(n))

        chain = [tuple(x - y for x, y in zip(e(i), e(i + 1))) for i in range(n - 1)]
        if family == "B":
            return chain + [e(n - 1)]
        if family == "C":
            return chain + [tuple(2 * x for x in e(n - 1))]
        return chain + [tuple(x + y for x, y in zip(e(n - 2), e(n - 1)))]
    if family == "G":
        return [(_f(1), _f(-1), _f(0)), (_f(-2), _f(1), _f(1))]
    if family == "F":
        return [
            (_f(0), _f(1), _f(-1), _f(0)),
            (_f(0), _f(0), _f(1), _f(-1)),
            (_f(0), _f(0), _f(0), _f(1)),
            (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),
        ]
    if family == "E":
        half = Fraction(1, 2)
        alpha1 = (half, -half, -half, -half, -half, -half, -half, half)
        alpha2 = tuple(_f(int(j < 2)) for j in range(8))
        rest = [tuple(_f(int(j == i - 1) - int(j == i - 2)) for j in range(8))
                for i in range(2, 8)]
        return ([alpha1, alpha2] + rest)[:n]
    raise ValueError(family)


def cartan_matrix_from_roots(roots: list[Vec]) -> list[list[int]]:
    """C[i][j] = value of simple root j on simple coroot i = 2(a_j,a_i)/(a_i,a_i)."""
    n = len(roots)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            val = 2 * inner(roots[j], roots[i]) / inner(roots[i], roots[i])
            assert val.denominator == 1
            row.append(int(val))
        out.append(row)
    return out


def euclidean_root_closure(simple: list[Vec]) -> set[Vec]:
    """All roots: closure of the simple roots under all root reflections."""
    roots = set(simple) | {tuple(-x for x in r) for r in simple}
    changed = True
    while changed:
        changed = False
        for alpha in list(roots):
            for beta in list(roots):
                coeff = 2 * inner(beta, alpha) / inner(alpha, alpha)
                image = tuple(b - coeff * a for b, a in zip(beta, alpha))
                if image not in roots:
                    roots.add(image)
                    changed = True
    return roots


def positive_root_count(family: str, n: int) -> int:
    simple = euclidean_simple_roots(family, n)
    return len(euclidean_root_closure(simple)) // 2


def weyl_order_by_orbit(simple: list[Vec]) -> int:
    """Order of the Weyl group as the orbit size of a regular vector."""
    dim = len(simple[0])
    seed = tuple(_f(1 + 7 * k + 13 * k * k) for k in range(dim))
    for alpha in euclidean_root_closure(simple):
        assert inner(seed, alpha) != 0, "seed vector is not regular"
    orbit = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for alpha in simple:
                coeff = 2 * inner(v, alpha) / inner(alpha, alpha)
                image = tuple(x - coeff * a for x, a in zip(v, alpha))
                if image not in orbit:
                    orbit.add(image)
                    nxt.append(image)
        frontier = nxt
    return len(orbit)


def cone_member_by_vertex_search(generators, v) -> bool:
    """Whether v is a non-negative rational combination of the generators,
    by exhaustive search over linearly independent subsets (Caratheodory)."""
    gens = [tuple(g) for g in generators]
    if not any(v):
        return True
    if not gens:
        return False
    dim = len(v)
    for size in range(1, dim + 1):
        for subset in itertools.combinations(gens, size):
            coeffs = _solve_nonnegative(subset, v)
            if coeffs is not None:
                return True
    return False


def _solve_nonnegative(subset, v):
    """Solve sum t_i s_i = v when the s_i are independent; require t >= 0."""
    r = len(subset)
    dim = len(v)
    rows = []
    cols = []
    for j in range(dim):
        candidate = cols + [j]
        mat = [[Fraction(subset[i][k]) for i in range(r)] for k in candidate]
        if _rank(mat) == len(candidate):
            cols = candidate
        if len(cols) == r:
            break
    if len(cols) < r:
        return None  # dependent subset
    square = [[Fraction(subset[i][k]) for i in range(r)] for k in cols]
    rhs = [Fraction(v[k]) for k in cols]
    t = _solve_square(square, rhs)
    if t is None or any(x < 0 for x in t):
        return None
    for j in range(dim):
        if sum(t[i] * subset[i][j] for i in range(r)) != v[j]:
            return None
    return t


def _rank(mat) -> int:
    work = [row[:] for row in mat]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def _solve_square(mat, rhs):
    n = len(mat)
    work = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [work[i][n] for i in range(n)]


def monoid_member_by_exhaustion(generators, v, cap: int) -> bool:
    """Membership by trying every coefficient vector with entries <= cap."""
    gens = [tuple(g) for g in generators]
    for combo in itertools.product(range(cap + 1), repeat=len(gens)):
        total = tuple(sum(c * g[j] for c, g in zip(combo, gens))
                      for j in range(len(v)))
        if total == tuple(v):
            return True
    return False


def box(dim: int, bound: int):
    return itertools.product(range(-bound, bound + 1), repeat=dim)


def dominance_by_elimination(roots, a, b) -> bool:
    """Whether b - a is a non-negative integer combination of the
    (independent) roots, by Fraction elimination."""
    t = _solve_nonnegative(roots, tuple(y - x for x, y in zip(a, b, strict=True)))
    return t is not None and all(x.denominator == 1 for x in t)


def idempotent_value_by_elimination(simple_roots, levi_positions, v) -> int | None:
    """1 when v is a non-negative integer combination of the simple roots
    supported on the Levi positions, 0 when it is one with support off
    them, None when it is no non-negative integer combination at all."""
    t = _solve_nonnegative(simple_roots, v)
    if t is None or any(x.denominator != 1 for x in t):
        return None
    return int(all(x == 0 for i, x in enumerate(t) if i not in levi_positions))


# ---------------------------------------------------------------------------
# Hilbert bases by box scan: every rank-sized subset of the extreme rays, the
# integer points of its closed parallelotope found by scanning the bounding
# box with Fraction solves, then reduction against all candidates.  This is
# the routine the library used before it triangulated.  It is exponential, so
# keep the cones small.  It reads extreme rays, lineality and containment
# from the library's double description.

def _parallelotope_points(subset, dim):
    """Integer points of {sum t_i s_i : 0 <= t_i <= 1} for independent s_i."""
    r = len(subset)
    cols = []
    for j in range(dim):
        if len(cols) == r:
            break
        candidate = cols + [j]
        sub = [[subset[i][k] for k in candidate] for i in range(r)]
        if matrix_rank(sub) == len(candidate):
            cols = candidate
    square = tuple(tuple(Fraction(subset[i][k]) for i in range(r)) for k in cols)
    inv = rational_inverse(square)
    lo = [sum(min(0, s[j]) for s in subset) for j in range(dim)]
    hi = [sum(max(0, s[j]) for s in subset) for j in range(dim)]
    points = []
    for p in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        rhs = [p[k] for k in cols]
        t = [sum((f * x for f, x in zip(row, rhs)), Fraction(0)) for row in inv]
        if any(x < 0 or x > 1 for x in t):
            continue
        if all(sum(t[i] * subset[i][j] for i in range(r)) == p[j] for j in range(dim)):
            points.append(tuple(p))
    return points


def _hilbert_pointed_by_box_scan(rays, dim):
    """Hilbert basis of the lattice points of a pointed cone given by its
    extreme rays: parallelotope candidates over maximal independent subsets
    of the rays (which cover the cone), then reduction to the irreducible
    elements."""
    if not rays:
        return []
    cone = RationalCone.from_generators(dim, rays)
    rank = matrix_rank(rays)
    candidates = set()
    for subset in itertools.combinations(rays, rank):
        if matrix_rank(subset) != rank:
            continue
        for p in _parallelotope_points(list(subset), dim):
            if any(p):
                candidates.add(p)
    ordered = sorted(candidates)
    basis = []
    for h in ordered:
        reducible = any(
            c != h and cone.contains(vec_sub(h, c)) for c in ordered
        )
        if not reducible:
            basis.append(h)
    return basis


def hilbert_basis_by_box_scan(c):
    """The minimal generating set of the monoid of lattice points of the
    cone, split along the lineality lattice like ``renner.hilbert_basis``."""
    lattice = c.lineality_lattice()
    rays = c.extreme_rays()
    out = set()
    for b in lattice:
        out.add(b)
        out.add(vec_neg(b))
    if rays:
        if lattice:
            proj = integer_kernel(lattice, c.ambient_dim)
            qdim = len(proj)
            qrays = [primitive(tuple(dot(row, r) for row in proj)) for r in rays]
            qrays = [q for q in dict.fromkeys(qrays) if any(q)]
            for q in _hilbert_pointed_by_box_scan(qrays, qdim):
                lift = integer_preimage(proj, q, c.ambient_dim)
                assert lift is not None
                out.add(coset_reduce(lift, lattice))
        else:
            out.update(_hilbert_pointed_by_box_scan(list(rays), c.ambient_dim))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Faces of a Hilbert-basis triangulation by rank: the facets and the pulling
# triangulation as the library computed them before it decided faces by
# inclusion alone.  A tight set is a facet only when its rays have rank one
# less than the cone's, and a face's facets are its intersections with the
# cone's facets that have rank one less than the face.

def face_rank_of(rays):
    """The ``face_rank`` closure of the library's former ``_hilbert_full``:
    the rank of a set of ray indices, memoised."""
    ranks: dict[frozenset[int], int] = {}

    def face_rank(face: frozenset[int]) -> int:
        if face not in ranks:
            ranks[face] = matrix_rank([rays[i] for i in face])
        return ranks[face]

    return face_rank


def facets_by_rank(rays: list[IntVec], forms, rank: int,
                   face_rank) -> dict[frozenset[int], IntVec]:
    """The facets of the cone spanned by rays (of rank ``rank``) that valid
    forms cut out: each facet's set of tight ray indices, mapped to one form
    that is tight on it.  Forms tight on a face of lower dimension, or on
    every ray, are dropped."""
    facets: dict[frozenset[int], IntVec] = {}
    for f in forms:
        tight = frozenset(i for i, r in enumerate(rays) if dot(f, r) == 0)
        if (tight not in facets and len(tight) >= rank - 1
                and face_rank(tight) == rank - 1):
            facets[tight] = f
    return facets


def pulling_triangulation_by_rank(count: int, facets, rank: int,
                                  face_rank) -> list[tuple[int, ...]]:
    """Simplices (sorted ray indices) of the pulling triangulation of the
    cone over rays 0 .. count - 1.  A face with more rays than its rank is
    the union of the cones over its first ray and the simplices of its
    facets that miss that ray.  The facets of a face are its intersections
    with the cone's facets that have rank one less, so the cone's own
    ray/facet incidence is all it needs."""
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def triangulate(face: frozenset[int], k: int) -> list[tuple[int, ...]]:
        if len(face) == k:
            return [tuple(sorted(face))]
        hit = memo.get(face)
        if hit is not None:
            return hit
        apex = min(face)
        out: list[tuple[int, ...]] = []
        done: set[frozenset[int]] = set()
        for tight in facets:
            if apex in tight:
                continue
            sub = face & tight
            if sub in done or len(sub) < k - 1 or face_rank(sub) != k - 1:
                continue
            done.add(sub)
            out.extend((apex,) + s for s in triangulate(sub, k - 1))
        memo[face] = out
        return out

    return triangulate(frozenset(range(count)), rank)


# ---------------------------------------------------------------------------
# Weyl groups by matrix products: the library's enumeration before it
# stepped by coordinate reflections, each element built as the product of a
# simple reflection matrix with its predecessor.

def act(w: WeylElement, v: Weight | Coweight):
    """Apply a Weyl element to a weight or coweight."""
    if len(v.coords) != len(w.weight_matrix):
        raise ValueError("dimension mismatch")
    if isinstance(v, Weight):
        return Weight(mat_vec(w.weight_matrix, v.coords))
    return Coweight(mat_vec(w.coweight_matrix, v.coords))


def chamber_walk(datum: RootDatum, coords: IntVec, subset: LeviSubset,
                 labels: list[int] | None = None) -> IntVec:
    """One call of ``chamber_walker(datum, subset)``."""
    return chamber_walker(datum, subset)(coords, labels)


def mat_mul(a, b) -> IntMat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_element(datum: RootDatum) -> WeylElement:
    eye = identity_matrix(datum.dim)
    return WeylElement((), eye, eye)


def simple_reflection(datum: RootDatum, label: int) -> WeylElement:
    j = datum._index(label)
    n = datum.dim
    wmat = [list(row) for row in identity_matrix(n)]
    for i in range(datum.rank):
        wmat[i][j] -= datum.cartan_matrix[i][j]
    weight_matrix = tuple(tuple(row) for row in wmat)
    return WeylElement((label,), weight_matrix, transpose(weight_matrix))


def compose(left: WeylElement, right: WeylElement) -> WeylElement:
    """The element acting as left after right: (left*right)(v) = left(right(v))."""
    return WeylElement(
        left.word + right.word,
        mat_mul(left.weight_matrix, right.weight_matrix),
        mat_mul(left.coweight_matrix, right.coweight_matrix),
    )


def weyl_group_by_products(datum: RootDatum, subset: LeviSubset) -> tuple[WeylElement, ...]:
    """All elements of the group generated by the reflections of a Levi subset.

    Breadth-first closure, deduplicated by action matrix, so the stored words
    are reduced.  Raises BudgetExceededError past ``budgets.weyl_cap()``.
    """
    datum.check_levi(subset)
    limit = budgets.weyl_cap()
    gens = [simple_reflection(datum, i) for i in subset.sorted_nodes()]
    ident = identity_element(datum)
    seen: dict[IntMat, WeylElement] = {ident.weight_matrix: ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for w in frontier:
            for s in gens:
                sw = compose(s, w)
                if sw.weight_matrix not in seen:
                    seen[sw.weight_matrix] = sw
                    next_frontier.append(sw)
                    if len(seen) > limit:
                        raise BudgetExceededError(
                            f"Weyl enumeration exceeded cap {limit}")
        frontier = next_frontier
    return tuple(sorted(seen.values(), key=lambda w: (len(w.word), w.word)))


def dominant_representative_by_products(datum: RootDatum, v: Weight,
                                        subset: LeviSubset) -> tuple[Weight, WeylElement]:
    """The unique subset-dominant element of the orbit of v, with a witness w
    such that the representative equals w applied to v."""
    labels: list[int] = []
    rep = chamber_walk(datum, v.coords, subset, labels)
    witness = identity_element(datum)
    for label in labels:
        witness = compose(simple_reflection(datum, label), witness)
    return Weight(rep), witness


# ---------------------------------------------------------------------------
# Weyl orbits by group enumeration: the image of one vector under every
# element of the enumerated group, as the library's builders computed them
# before they walked orbits on coordinates.

@functools.lru_cache(maxsize=None)
def _weyl_group(datum, subset):
    return weyl_group_by_products(datum, subset)


def weyl_orbit_by_group(datum, subset, v) -> frozenset:
    """The orbit of a weight or coweight: ``act(w, v)`` for every w in the
    subset's Weyl group (the enumerated group is kept per datum and subset)."""
    return frozenset(act(w, v) for w in _weyl_group(datum, subset))


def pair_cone_halfspaces_by_group(datum) -> list:
    """The covectors on (first, second) that cut out the pair cone, one per
    Weyl element and scaled fundamental coweight, duplicates included."""
    n = datum.rank
    halfspaces = []
    for w in _weyl_group(datum, datum.full_levi()):
        for u in _positive_root_functionals(datum):
            # u.(second - w(first)) >= 0 as a covector on (first, second)
            left = tuple(-sum(u[r] * w.weight_matrix[r][c] for r in range(n))
                         for c in range(n))
            halfspaces.append(left + u)
    return halfspaces


# ---------------------------------------------------------------------------
# Weight sets by descent with reflection closure, and finite type by every
# principal minor: the library routines before the weight sets were built by
# root steps alone and finite type was decided on the leading minors.

def dual_weyl_weights_by_reflection_closure(datum: RootDatum, levi: LeviSubset,
                                            hw: Weight) -> WeightSet:
    """Saturated weight set with the given highest weight: all weights whose
    Levi-dominant representative lies below it in the Levi dominance order.

    Computed by breadth-first descent from the highest weight, subtracting
    Levi simple roots and closing under the Levi reflections, applied on
    coordinates as v - v_i * alpha_i.
    """
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    nodes = sorted(levi.nodes)
    roots = [datum.simple_root(i) for i in nodes]
    walk = chamber_walker(datum, levi)
    seen: set[Weight] = {hw}
    queue = deque([hw])
    while queue:
        v = queue.popleft()
        for step in roots:
            u = v - step
            if u not in seen and _is_member(datum, levi, walk, hw, u):
                seen.add(u)
                queue.append(u)
        for i, root in zip(nodes, roots):
            u = v - root.scale(v.coords[i - 1])
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return WeightSet(datum, levi, hw, frozenset(seen))


def invariant_weights_by_descent(datum: RootDatum, levi: LeviSubset,
                                 hw: Weight) -> WeightSet:
    """The weights of the module with highest weight ``hw`` (dominant for
    the whole diagram) that lie below it in the Levi dominance order, the
    same set as ``up_invariant_weights`` of the full weight set.

    Computed by breadth-first descent from the highest weight, subtracting
    Levi simple roots only and keeping what stays in the full weight set,
    since a chain of weights from v up to lambda steps by simple roots that
    all lie in L.
    """
    datum.check_levi(levi)
    kept = _descend(datum, datum.full_levi(), hw, _simple_roots(datum, levi))
    return WeightSet(datum, levi, hw, frozenset(kept))


def check_cor_uinv_by_full_descent(pd: ParabolicData, hw_window) -> CheckReport:
    """Verify that invariant weights land in the Levi-Weyl orbit of the
    dominant cone (containment) and that every orbit element is realized as
    an invariant weight of the module of its dominant representative
    (exhaustion), for each highest weight of a non-empty window."""
    datum, levi = pd.datum, pd.levi
    window = tuple(hw_window)
    if not window:
        raise ValueError("uinv needs a non-empty window of highest weights")
    report = CheckReport("uinv", pd.instance(), "window", True)
    for hw in window:
        if not is_dominant(hw, datum.full_levi()):
            raise ValueError("window weights must be dominant")
        invariant = invariant_weights_by_descent(datum, levi, hw).elements
        for v in invariant:
            if not in_wm_dominant(pd, v):
                report.add_counterexample({
                    "kind": "invariant-weight-outside-orbit",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
        for v in sorted(weyl_orbit(datum, levi, hw), key=lambda w: w.coords):
            if v not in invariant:
                report.add_counterexample({
                    "kind": "orbit-weight-not-realized",
                    "highest": list(hw.coords),
                    "vector": list(v.coords),
                })
    return report


def determinant(m) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def rational_inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square integer matrix over the rationals."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        inv = 1 / prow[col]
        work[col] = [x * inv for x in prow]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _sub_row(a, u, i, j, q):
    """Row i -= q * row j, in both the working matrix and the transform."""
    a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    u[i] = [x - q * y for x, y in zip(u[i], u[j])]


def row_hnf_transform(rows, ncols: int) -> tuple[list[IntVec], IntMat]:
    """Row Hermite normal form with transform: returns (H, U) with H = U @ rows.

    H is in staircase form with positive pivots and entries above each pivot
    reduced into [0, pivot); zero rows are at the bottom.  U is unimodular.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                _swap_rows(a, u, r, i0)
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    _sub_row(a, u, i, r, q)
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q != 0:
                    _sub_row(a, u, i, r, q)
            r += 1
        if r == m:
            break
    return [tuple(row) for row in a], tuple(tuple(row) for row in u)


def check_finite_type_by_all_minors(c: IntMat) -> None:
    """Every principal minor of a finite-type Cartan matrix is positive."""
    n = len(c)
    if n > 12:
        raise ValueError("rank above the supported bound (12)")
    from itertools import combinations

    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            minor = tuple(tuple(c[i][j] for j in subset) for i in subset)
            if determinant(minor) <= 0:
                raise ValueError("Cartan matrix is not of finite type")


# ---------------------------------------------------------------------------
# Lattice windows by box filter, the saturation check that walks the window
# before the Hilbert basis, and the window check with two root-coordinate
# solves per pair: the library routines before the pruned walk, the single
# certificate and the single solve.

def enumerate_points_by_filter(c: RationalCone, height_bound: int) -> tuple[IntVec, ...]:
    """All lattice points of the cone with max-norm <= height_bound, in
    lexicographic order: every point of the box, tested on every halfspace."""
    halfspaces = c.halfspaces
    points = tuple(
        p for p in lattice_box(c.ambient_dim, height_bound)
        if all(dot(h, p) >= 0 for h in halfspaces)
    )
    return points


def is_saturated_window_first(m: LatticeMonoid, height_bound: int) -> SaturationCertificate:
    """Check that the monoid contains every lattice point of its cone.

    Always runs the bounded window check; when the Hilbert basis of the cone
    is affordable the certificate is exact (membership of every Hilbert
    basis element certifies saturation outright, not just up to the bound).
    """
    cone = m.cone()
    for p in enumerate_points(cone, height_bound):
        if not monoid_contains(m, p):
            return SaturationCertificate(False, f"bounded:h{height_bound}", p)
    try:
        basis = hilbert_basis(cone)
    except BudgetExceededError:
        return SaturationCertificate(True, f"bounded:h{height_bound}")
    for h in basis:
        if not monoid_contains(m, h):
            return SaturationCertificate(False, "exact", h, basis)
    return SaturationCertificate(True, "exact", hilbert_basis=basis)


def _difference_in_root_lattice(datum, diff: IntVec) -> bool:
    return integral_root_coordinates(datum, diff, datum.full_levi()) is not None


def lattice_pairs_by_double_solve(vc: VinbergCone, height_bound: int) -> tuple[IntVec, ...]:
    """The window's pairs whose difference lies in the root lattice."""
    n = vc.datum.rank
    return tuple(
        p for p in enumerate_points(vc.cone, height_bound)
        if _difference_in_root_lattice(
            vc.datum, tuple(p[n + i] - p[i] for i in range(n))))


def project_idempotent_by_halfspaces(vc: VinbergCone, cp: CpPoint,
                                     pair: tuple[Weight, Weight]) -> Weight:
    """``vinberg.project_idempotent`` as it tested cone containment before
    it used the n positive-root functionals on second - first+: by the pair
    cone's 2n-dimensional halfspaces.  Checks, in order: dimension, cone
    containment, root lattice, Levi subset, sign."""
    first, second = pair
    n = vc.datum.rank
    if len(first.coords) != n or len(second.coords) != n:
        raise ValueError("pair dimension mismatch")
    point = first.coords + second.coords
    if not vc.cone.contains(point):
        raise ValueError("pair is outside the cone")
    datum = vc.datum
    coords = integral_root_coordinates(datum, (second - first).coords, datum.full_levi())
    if coords is None:
        raise ValueError("pair difference is not in the root lattice")
    datum.check_levi(cp.levi)
    return first.scale(_supported_on_levi(datum, coords, cp.levi))


@functools.lru_cache(maxsize=None)
def _double_solved_pairs(datum: RootDatum, height_bound: int) -> tuple[IntVec, ...]:
    """``lattice_pairs_by_double_solve`` of the datum's pair cone, kept per
    datum and bound for every Levi subset: the pairs depend on neither the
    subset nor the orbit test."""
    return lattice_pairs_by_double_solve(vinberg_cone(datum), height_bound)


def check_image_by_double_solve(pd: ParabolicData, height_bound: int) -> CheckReport:
    """``vinberg.check_image``, with each kept pair's difference evaluated
    through ``eval_at_cp``, which solves its root coordinates again, once per
    distinct difference, and each witness pair tested by
    ``project_idempotent_by_halfspaces``.  Every orbit test is asked anew."""
    datum = pd.datum
    vc = vinberg_cone(datum)
    cp = CpPoint(pd.levi)
    report = CheckReport("vinberg-image", pd.instance(),
                         f"window:h{height_bound}", True)
    n = datum.rank
    values: dict[IntVec, int] = {}
    for point in _double_solved_pairs(datum, height_bound):
        first = Weight(point[:n])
        diff = tuple(point[n + i] - point[i] for i in range(n))
        value = values.get(diff)
        if value is None:
            value = values[diff] = eval_at_cp(datum, Weight(diff), cp)
        image = first.scale(value)
        if not in_wm_dominant(pd, image):
            report.add_counterexample({
                "kind": "image-escapes-orbit",
                "pair": [list(point[:n]), list(point[n:])],
                "image": list(image.coords),
            })
    for coords in lattice_box(n, height_bound):
        v = Weight(coords)
        if not in_wm_dominant(pd, v):
            continue
        rep = Weight(chamber_walk(datum, coords, pd.levi))
        point = v.coords + rep.coords
        if not vc.cone.contains(point):
            report.add_counterexample({
                "kind": "witness-pair-outside-cone",
                "vector": list(coords),
                "pair": [list(v.coords), list(rep.coords)],
            })
            continue
        image = project_idempotent_by_halfspaces(vc, cp, (v, rep))
        if image != v:
            report.add_counterexample({
                "kind": "witness-pair-misses-vector",
                "vector": list(coords),
                "image": list(image.coords),
            })
    return report


def pair_lattice(datum: RootDatum) -> tuple[IntVec, ...]:
    """Row HNF basis of {(first, second) : second - first in the root
    lattice}, spanned by the diagonal pairs (e_i, e_i) and the pairs
    (0, alpha_j) of the simple roots."""
    n = datum.rank
    diagonal = [e + e for e in identity_matrix(n)]
    roots = [(0,) * n + alpha.coords for alpha in datum.simple_roots]
    return tuple(row_hnf(diagonal + roots, 2 * n))


def pair_window_by_pairs(vc: VinbergCone, height_bound: int):
    """The pair window as the library kept it before first-weight blocks:
    every pair of the flat walk of the pair lattice in dimension 2n with its
    support, solved once per distinct difference.  Returns the pairs, the
    minimal supports of each first weight, and the solved differences."""
    datum = vc.datum
    n = datum.rank
    full = datum.full_levi()
    bits = [1 << i for i in range(n)]
    pairs = []
    solved: dict[IntVec, int] = {}
    supports: dict[IntVec, set[int]] = {}
    lattice = pair_lattice(datum)
    for p in _window_walk(vc.cone.halfspaces, 2 * n, height_bound, lattice):
        diff = tuple(map(sub, p[n:], p[:n]))
        support = solved.get(diff)
        if support is None:
            coords = integral_root_coordinates(datum, diff, full)
            if coords is None or any(c < 0 for c in coords):
                raise InternalError(
                    f"lattice pair {p} has no non-negative root coordinates")
            support = solved[diff] = sum(bit for bit, c in zip(bits, coords) if c)
        pairs.append((p, support))
        supports.setdefault(p[:n], set()).add(support)
    first_supports = {
        first: tuple(sorted(m for m in masks
                            if not any(o != m and o & m == o for o in masks)))
        for first, masks in supports.items()}
    return tuple(pairs), first_supports, solved


# ---------------------------------------------------------------------------
# Extreme rays by a rank test: the filter that canonicalisation applied to the
# double description's rays before it relied on the combinatorial adjacency
# test alone.

def _extreme_filter(rays: list[IntVec], constraints: list[IntVec],
                    lineality_dim: int, dim: int) -> list[IntVec]:
    """Keep the rays whose minimal face has dimension lineality_dim + 1."""
    kept = []
    for r in rays:
        tight = [h for h in constraints if dot(h, r) == 0]
        face_dim = dim - matrix_rank(tight) if tight else dim
        if face_dim == lineality_dim + 1:
            kept.append(r)
    return kept


def check_weight_hull_by_all_pairs(pd: ParabolicData, height_bound: int) -> CheckReport:
    """``parabolic_monoid.check_weight_hull``, comparing each member with
    every Levi-dominant point of the window."""
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


# ---------------------------------------------------------------------------
# The intersection lemma by group action: every Weyl element applied to every
# window point, and one double description per translate cone, as the library
# decided it before it collected the group's distinct coweight-matrix rows.

def _in_positive_monoid(datum: RootDatum, v: Coweight) -> bool:
    rank = datum.rank
    return (all(x >= 0 for x in v.coords[:rank])
            and not any(v.coords[rank:]))


def check_intersection_lemma_by_group(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the wedge cone equals the intersection of the Weyl
    translates of the positive cone, at cone level and on a lattice window,
    together with the shared anti-dominant slice of the two monoids."""
    datum, levi = pd.datum, pd.levi
    report = CheckReport("posU", pd.instance(),
                         f"cone+lattice:h{height_bound}", True)
    group = _weyl_group(datum, levi)
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


# ---------------------------------------------------------------------------
# Duality with the pairing side decided point by point: each window point is
# paired with every wedge generator, as the library did before it walked the
# window points of the cone the generators cut out.

def check_duality_pointwise(pd: ParabolicData, height_bound: int) -> CheckReport:
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


# ---------------------------------------------------------------------------
# The three window checks as the library ran them before their cone
# certificates: every call walks the lattice window and compares both sides
# at each point, where the library walks it only when a certificate fact
# fails.

def check_duality_by_window(pd: ParabolicData, height_bound: int) -> CheckReport:
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


def check_intersection_lemma_by_window(pd: ParabolicData, height_bound: int) -> CheckReport:
    """Verify that the wedge cone equals the intersection of the Weyl
    translates of the positive cone, at cone level and on a lattice window,
    together with the shared anti-dominant slice of the two monoids.

    Both sides are decided on the Renner generators: the cone side by one
    double description, the lattice side as the window points of that cone.
    On the wedge side ``monoid_contains`` runs only on the window points of
    the wedge cone, and the anti-dominant slice is the window points of the
    cone of the negated Levi columns of the Cartan matrix."""
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


def check_weight_hull_by_window(pd: ParabolicData, height_bound: int) -> CheckReport:
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


# ---------------------------------------------------------------------------
# The cone sides of duality and posU as the library ran them before it
# compared the parabolic's own canonical forms: the dual of the wedge cone
# rebuilt by ``dual_cone``, and the intersection cone cut out by the Renner
# generators.  A certificate is tried only when the rebuilt cones agree;
# otherwise the window check reports, cone side first.

def check_duality_by_dual_cone(pd: ParabolicData, height_bound: int) -> CheckReport:
    if dual_cone(pd.pos_up.cone()) == renner_cone(pd) and _duality_certified(pd):
        return CheckReport("duality", pd.instance(), f"cone+lattice:h{height_bound}", True)
    return check_duality_by_window(pd, height_bound)


def check_intersection_lemma_by_meet(pd: ParabolicData, height_bound: int) -> CheckReport:
    meet = RationalCone.from_halfspaces(pd.datum.dim, [w.coords for w in pd.renner_generators])
    if meet == pd.pos_up.cone() and _intersection_certified(pd):
        return CheckReport("posU", pd.instance(), f"cone+lattice:h{height_bound}", True)
    return check_intersection_lemma_by_window(pd, height_bound)


# ---------------------------------------------------------------------------
# The library's former cone certificates of duality, posU and wthull: each
# compares two cones built from halfspaces, one double description apiece,
# where the library decides the same chamber facts by sign tests and Levi
# chamber walks on the generators and canonical halfspaces it already holds.

def meets_as(dim: int, first, second, common) -> bool:
    """Whether the cones cut out by ``first`` and by ``second``, each with
    the halfspaces ``common`` added, are equal."""
    return (RationalCone.from_halfspaces(dim, [*first, *common])
            == RationalCone.from_halfspaces(dim, [*second, *common]))


def duality_certified_by_cones(pd: ParabolicData) -> bool:
    """The Renner generators are stable under each Levi simple reflection,
    and the Renner cone meets the Levi-dominant chamber in the dominant
    cone, compared as two cones."""
    gens = {w.coords for w in pd.renner_generators}
    roots = _levi_roots(pd)
    if any(tuple(x - g[j] * a for x, a in zip(g, alpha)) not in gens
           for j, alpha in roots for g in gens):
        return False
    eye = identity_matrix(pd.datum.dim)
    return meets_as(pd.datum.dim, renner_cone(pd).canonical_halfspaces(),
                    eye[:pd.datum.rank], [eye[j] for j, _ in roots])


def intersection_certified_by_cones(pd: ParabolicData) -> bool:
    """The wedge monoid is saturated, and the wedge cone meets the
    Levi-anti-dominant cone where the positive orthant with zero central
    block does, compared as two cones."""
    if not pd.wedge_saturated:
        return False
    dim, rank = pd.datum.dim, pd.datum.rank
    eye = identity_matrix(dim)
    orthant = [*eye[:rank], *eye[rank:], *map(vec_neg, eye[rank:])]
    return meets_as(dim, pd.pos_up.cone().canonical_halfspaces(), orthant,
                    _levi_root_cone(pd, -1).halfspaces)


def weight_hull_certified_by_cones(pd: ParabolicData) -> bool:
    """The wedge monoid is saturated, and K, the wedge cone meet the
    Levi-dominant cone, is cut out by the Levi walls and those of its
    canonical halfspaces h with h_j <= 0 at every Levi node j, compared as
    two cones."""
    if not pd.wedge_saturated:
        return False
    dim = pd.datum.dim
    walls = _levi_root_cone(pd, 1).halfspaces
    k = RationalCone.from_halfspaces(dim, [*pd.pos_up.cone().canonical_halfspaces(), *walls])
    positions = [j for j, _ in _levi_roots(pd)]
    lowering = [h for h in k.canonical_halfspaces() if all(h[j] <= 0 for j in positions)]
    return k == RationalCone.from_halfspaces(dim, [*lowering, *walls])


# ---------------------------------------------------------------------------
# A cone's canonical data by a second double description, as the library
# found them before it read the given side off the other side's canonical
# vectors.

def canonical_data_by_second_description(c: RationalCone) -> tuple[tuple[IntVec, ...], ...]:
    """The canonical generators, extreme rays and lineality lattice of the
    cone given by the cone's canonical halfspaces."""
    twin = RationalCone.from_halfspaces(c.ambient_dim, c.canonical_halfspaces())
    return twin.canonical_generators(), twin.extreme_rays(), twin.lineality_lattice()


def canonical_halfspaces_by_second_description(c: RationalCone) -> tuple[IntVec, ...]:
    """The canonical halfspaces of the cone, by a second double description
    of its canonical generators."""
    twin = RationalCone.from_generators(c.ambient_dim, c.canonical_generators())
    return twin.canonical_halfspaces()


# ---------------------------------------------------------------------------
# Former public helpers of the library that no command calls, kept for the
# tests that pin them.

def intersect(cones: list[RationalCone]) -> RationalCone:
    """Intersection of cones of equal dimension, by concatenating
    H-representations and recomputing the generators."""
    if not cones:
        raise ValueError("need at least one cone")
    dim = cones[0].ambient_dim
    if any(c.ambient_dim != dim for c in cones):
        raise ValueError("ambient dimensions differ")
    halfspaces: list[IntVec] = []
    for c in cones:
        halfspaces.extend(c.halfspaces)
    return RationalCone.from_halfspaces(dim, halfspaces)


def coweight_is_dominant(datum: RootDatum, v: Coweight, subset: LeviSubset) -> bool:
    """Whether the coweight pairs non-negatively with the subset's roots."""
    c = datum.cartan_matrix
    rank = datum.rank
    for i in subset.nodes:
        j = i - 1
        if sum(c[r][j] * v.coords[r] for r in range(rank)) < 0:
            return False
    return True


def saturated_hull_by_window(datum: RootDatum, levi: LeviSubset, hw: Weight) -> frozenset[Weight]:
    """The weight set of ``dual_weyl_weights``, built independently: filter
    the box of non-negative Levi-root displacements from the highest weight."""
    datum.check_levi(levi)
    if not is_dominant(hw, levi):
        raise ValueError("highest weight is not dominant for the Levi subset")
    nodes = sorted(levi.nodes)
    if not nodes:
        return frozenset({hw})
    # Bound each displacement coefficient by its value at the orbit vertices.
    bounds = [max(col) for col in zip(*(
        integral_root_coordinates(datum, (hw - v).coords, levi)
        for v in weyl_orbit(datum, levi, hw)))]
    roots = [datum.simple_root(i) for i in nodes]
    walk = chamber_walker(datum, levi)
    members = set()
    for combo in itertools.product(*[range(b + 1) for b in bounds]):
        v = hw
        for n_i, root in zip(combo, roots):
            v = v - root.scale(n_i)
        if _is_member(datum, levi, walk, hw, v):
            members.add(v)
    return frozenset(members)


def pr_off_levi(datum: RootDatum, v: Weight, levi: LeviSubset) -> tuple[int, ...]:
    """Simple-root coordinates of a root-lattice weight on the nodes outside
    the Levi subset, in increasing node order."""
    datum.check_levi(levi)
    coords = integral_root_coordinates(datum, v.coords, datum.full_levi())
    if coords is None:
        raise ValueError("weight is not in the root lattice")
    return tuple(c for label, c in zip(datum.weight_basis_labels, coords)
                 if label not in levi.nodes)
