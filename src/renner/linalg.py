"""Exact integer and rational linear algebra helpers.

Everything operates on tuples of Python ints (Fractions at the boundaries),
so results are exact and hashable.  No floating point anywhere.

Two eliminations do all the work.  The fraction-free ``_bareiss``
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968) gives the rank, the adjugate and determinant of a
square matrix, and the leading principal minors of the finite-type test in
``root_datum``; ``rational_inverse`` is the adjugate over the determinant,
not an independent route.  The Hermite elimination ``_hnf`` gives every
row HNF, and on [rows | I] the unimodular transform behind the integer
kernel and preimage.
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


def primitive(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
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


def transpose(m) -> IntMat:
    return tuple(zip(*m, strict=True)) if m else ()


def _bareiss(rows, full: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix: the worked
    rows, the pivot columns and the number of row exchanges.

    Each step scales the rows it clears by the new pivot and divides by the
    previous one.  Every entry stays, up to sign, a minor of the
    row-exchanged input, so every division is exact, and the k-th pivot is
    the minor on the first k + 1 rows and pivot columns.  The forward pass
    clears below each pivot; ``full`` clears above it too (Bareiss-Montante
    Gauss-Jordan), which leaves the last pivot on every pivot entry.  The
    pass stops once every row holds a pivot.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    swaps = 0
    prev = 1
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            swaps += 1
        prow = work[r]
        p = prow[col]
        for i in range(0 if full else r + 1, len(work)):
            if i != r:
                f = work[i][col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], prow)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return work, pivots, swaps


def matrix_rank(rows) -> int:
    """Rank over the rationals: the number of pivots of the forward pass."""
    return len(_bareiss(rows)[1])


def adjugate_and_det(m) -> tuple[IntMat, int]:
    """Adjugate matrix and determinant of a square integer matrix, so that
    adj(m) @ m = det(m) * identity, all over the integers.

    One Gauss-Jordan pass of ``_bareiss`` on [m | I]: m is singular exactly
    when some pivot falls outside its columns.  Otherwise the left block
    ends as d * I and the right block as d * m^-1, with d the determinant of
    the row-exchanged matrix, whose sign each exchange flips.  The empty
    matrix gives ((), 1).
    """
    n = len(m)
    work, pivots, swaps = _bareiss(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)],
        full=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    sign = (-1) ** swaps
    det = work[-1][n - 1] if n else 1
    return tuple(tuple(sign * x for x in row[n:]) for row in work), sign * det


def rational_inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square integer matrix over the rationals: the adjugate
    over the determinant."""
    adj, det = adjugate_and_det(m)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def _hnf(rows, ncols: int) -> list[list[int]]:
    """Unimodular row elimination of an integer matrix to Hermite normal
    form in its first ncols columns: staircase form, positive pivots, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.  Any
    further columns are carried through every row operation."""
    m = len(rows)
    a = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q != 0:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
        if r == m:
            break
    return a


def row_hnf_transform(rows, ncols: int) -> tuple[list[IntVec], IntMat]:
    """Row Hermite normal form with transform: returns (H, U) with H = U @ rows.

    One elimination of [rows | I] by ``_hnf``: H is the left block, in the
    staircase form ``_hnf`` leaves, and U, the right block, is unimodular.
    """
    m = len(rows)
    work = _hnf([list(row) + [int(i == j) for j in range(m)]
                 for i, row in enumerate(rows)], ncols)
    return ([tuple(row[:-m]) for row in work],
            tuple(tuple(row[-m:]) for row in work))


def row_hnf(rows, ncols: int) -> list[IntVec]:
    """Canonical row HNF basis of the integer row span (zero rows dropped)."""
    return [tuple(row) for row in _hnf(rows, ncols) if any(row)]


def integer_kernel(rows, ncols: int) -> list[IntVec]:
    """Basis of the lattice {y in Z^ncols : rows @ y = 0}.

    The returned basis spans the full integer kernel (a pure sublattice).
    """
    at = [tuple(row[i] for row in rows) for i in range(ncols)]
    h, u = row_hnf_transform(at, len(rows))
    basis = [u[i] for i in range(ncols) if not any(h[i])]
    return row_hnf(basis, ncols)


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
    rational span of hnf_rows: pivot coordinates are zeroed out by integer
    elimination, w <- row[p] * w - w[p] * row (HNF pivots are positive, so
    the ray is kept)."""
    w = list(v)
    for row in hnf_rows:
        p = _pivot(row)
        if w[p]:
            w = [row[p] * x - w[p] * y for x, y in zip(w, row)]
    return primitive(w)
