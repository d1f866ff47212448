"""Independent oracle computations used to derive and pin expected values.

Everything here is deliberately written against different primitives than
the library: root systems are realized in Euclidean coordinates with exact
Fractions, cone membership goes through exhaustive vertex search, and
monoid membership through bounded exhaustive combination search.  The
exceptions are former library routines kept as references:
``hilbert_basis_by_box_scan`` shares the library's double description but
none of its triangulation or group enumeration, ``weyl_orbit_by_group``
and ``pair_cone_halfspaces_by_group`` apply every element of the enumerated
Weyl group where the library walks orbits on coordinates,
``enumerate_points_by_filter`` tests every point of the window box where the
library walks a pruned lexicographic tree, and
``check_image_by_double_solve`` solves each pair's root coordinates twice,
once to keep the pair and once to evaluate it at the idempotent point.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from renner.cones import RationalCone, enumerate_points
from renner.linalg import (
    IntVec,
    coset_reduce,
    dot,
    integer_kernel,
    integer_preimage,
    lattice_box,
    matrix_rank,
    primitive,
    rational_inverse,
    vec_neg,
    vec_sub,
)
from renner.parabolic_monoid import ParabolicData, in_wm_dominant
from renner.reports import CheckReport
from renner.root_datum import (
    Weight,
    act,
    chamber_walk,
    integral_root_coordinates,
    weyl_group,
)
from renner.vinberg import (
    CpPoint,
    VinbergCone,
    _positive_root_functionals,
    eval_at_cp,
    project_idempotent,
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
# Weyl orbits by group enumeration: the image of one vector under every
# element of the enumerated group, as the library's builders computed them
# before they walked orbits on coordinates.

@functools.lru_cache(maxsize=None)
def _weyl_group(datum, subset):
    return weyl_group(datum, subset)


def weyl_orbit_by_group(datum, subset, v) -> frozenset:
    """The orbit of a weight or coweight: ``act(w, v)`` for every w in the
    subset's Weyl group (the enumerated group is kept per datum and subset)."""
    return frozenset(act(w, v) for w in _weyl_group(datum, subset))


def pair_cone_halfspaces_by_group(datum) -> list:
    """The covectors on (first, second) that cut out the pair cone, one per
    Weyl element and scaled fundamental coweight, duplicates included."""
    n = datum.rank
    halfspaces = []
    for w in weyl_group(datum, datum.full_levi()):
        for u in _positive_root_functionals(datum):
            # u.(second - w(first)) >= 0 as a covector on (first, second)
            left = tuple(-sum(u[r] * w.weight_matrix[r][c] for r in range(n))
                         for c in range(n))
            halfspaces.append(left + u)
    return halfspaces


# ---------------------------------------------------------------------------
# Lattice windows by box filter, and the window check with two root-coordinate
# solves per pair: the library routines before the pruned walk and the single
# solve.

def enumerate_points_by_filter(c: RationalCone, height_bound: int) -> tuple[IntVec, ...]:
    """All lattice points of the cone with max-norm <= height_bound, in
    lexicographic order: every point of the box, tested on every halfspace."""
    halfspaces = c.halfspaces
    points = tuple(
        p for p in lattice_box(c.ambient_dim, height_bound)
        if all(dot(h, p) >= 0 for h in halfspaces)
    )
    return points


def _difference_in_root_lattice(datum, diff: IntVec) -> bool:
    return integral_root_coordinates(datum, diff, datum.full_levi()) is not None


def lattice_pairs_by_double_solve(vc: VinbergCone, height_bound: int) -> tuple[IntVec, ...]:
    """The window's pairs whose difference lies in the root lattice."""
    n = vc.datum.rank
    return tuple(
        p for p in enumerate_points(vc.cone, height_bound)
        if _difference_in_root_lattice(
            vc.datum, tuple(p[n + i] - p[i] for i in range(n))))


def check_image_by_double_solve(pd: ParabolicData, height_bound: int) -> CheckReport:
    """``vinberg.check_image``, with each kept pair evaluated through
    ``eval_at_cp``, which solves its root coordinates again."""
    datum = pd.datum
    vc = vinberg_cone(datum)
    cp = CpPoint(pd.levi)
    report = CheckReport("vinberg-image", pd.instance(),
                         f"window:h{height_bound}", True)
    n = datum.rank
    for point in lattice_pairs_by_double_solve(vc, height_bound):
        first = Weight(point[:n])
        diff = Weight(tuple(point[n + i] - point[i] for i in range(n)))
        image = first.scale(eval_at_cp(datum, diff, cp))
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
        image = project_idempotent(vc, cp, (v, rep))
        if image != v:
            report.add_counterexample({
                "kind": "witness-pair-misses-vector",
                "vector": list(coords),
                "image": list(image.coords),
            })
    return report
