"""Exact integer and rational linear algebra helpers.

Everything operates on tuples of Python ints (Fractions at the boundaries),
so results are exact and hashable.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def lattice_box(dim: int, bound: int):
    """Integer vectors with max-norm <= bound, in lexicographic order."""
    return product(range(-bound, bound + 1), repeat=dim)


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m, v) -> IntVec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b) -> IntMat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m) -> IntMat:
    return tuple(zip(*m, strict=True)) if m else ()


def matrix_rank(rows) -> int:
    """Rank over the rationals, by fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / prow[col]
                work[i] = [x - f * y for x, y in zip(work[i], prow)]
        rank += 1
        col += 1
    return rank


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


def adjugate_and_det(m) -> tuple[IntMat, int]:
    """Adjugate matrix and determinant of a square integer matrix, so that
    adj(m) @ m = det(m) * identity, all over the integers."""
    d = determinant(m)
    if d == 0:
        raise ValueError("matrix is singular")
    inv = rational_inverse(m)
    adj = []
    for row in inv:
        entries = []
        for x in row:
            scaled = x * d
            if scaled.denominator != 1:
                raise ValueError("adjugate is not integral")
            entries.append(int(scaled))
        adj.append(tuple(entries))
    return tuple(adj), d


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


def row_hnf(rows, ncols: int) -> list[IntVec]:
    """Canonical row HNF basis of the integer row span (zero rows dropped)."""
    h, _ = row_hnf_transform(rows, ncols)
    return [row for row in h if any(row)]


def integer_kernel(rows, ncols: int) -> list[IntVec]:
    """Basis of the lattice {y in Z^ncols : rows @ y = 0}.

    The returned basis spans the full integer kernel (a pure sublattice).
    """
    at = [tuple(row[i] for row in rows) for i in range(ncols)]
    h, u = row_hnf_transform(at, len(rows))
    basis = [u[i] for i in range(ncols) if not any(h[i])]
    return [tuple(row) for row in row_hnf(basis, ncols)] if basis else []


def _pivot(row) -> int:
    return next(i for i, x in enumerate(row) if x != 0)


def integer_preimage(a_rows, b, ncols: int) -> IntVec | None:
    """An integer solution x of A @ x = b, or None if there is none."""
    at = [tuple(row[i] for row in a_rows) for i in range(ncols)]
    h, u = row_hnf_transform(at, len(a_rows))
    v = list(b)
    y = [0] * ncols
    for i, row in enumerate(h):
        if not any(row):
            continue
        p = _pivot(row)
        if v[p] % row[p] != 0:
            return None
        q = v[p] // row[p]
        y[i] = q
        v = [x - q * r for x, r in zip(v, row)]
    if any(v):
        return None
    x = [0] * ncols
    for i, q in enumerate(y):
        if q:
            x = [xi + q * ui for xi, ui in zip(x, u[i])]
    return tuple(x)


def coset_reduce(v, hnf_rows) -> IntVec:
    """Canonical representative of v modulo the integer row span of hnf_rows."""
    w = list(v)
    for row in hnf_rows:
        p = _pivot(row)
        q = w[p] // row[p]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


def lattice_member(v, hnf_rows) -> bool:
    return not any(coset_reduce(v, hnf_rows))


def reduce_mod_subspace(v, hnf_rows) -> IntVec:
    """Canonical primitive representative of the ray of v modulo the
    rational span of hnf_rows: pivot coordinates are zeroed out exactly."""
    w = [Fraction(x) for x in v]
    for row in hnf_rows:
        p = _pivot(row)
        f = w[p] / row[p]
        if f:
            w = [x - f * y for x, y in zip(w, row)]
    return fractions_to_primitive(w)


def fractions_to_primitive(vec) -> IntVec:
    """Scale a rational vector by a positive constant to a primitive IntVec."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    return primitive(ints)
