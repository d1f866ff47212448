import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renner.linalg import (
    adjugate_and_det,
    coset_reduce,
    integer_kernel,
    integer_preimage,
    lattice_member,
    matrix_rank,
    primitive,
    rational_inverse,
    reduce_mod_subspace,
    row_hnf,
    row_hnf_transform,
)

from .oracles import _rank, determinant
from .oracles import rational_inverse as rational_inverse_by_gauss_jordan
from .oracles import row_hnf_transform as row_hnf_transform_by_two_matrices


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)
    assert primitive((5, 7)) == (5, 7)


def test_determinant_small():
    assert determinant(((2, -1), (-1, 2))) == 3
    assert determinant(((2, -3), (-1, 2))) == 1
    assert determinant(((1, 2), (2, 4))) == 0
    assert determinant(()) == 1


def test_rational_inverse_roundtrip():
    m = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    inv = rational_inverse(m)
    for i in range(3):
        for j in range(3):
            entry = sum(m[i][k] * inv[k][j] for k in range(3))
            assert entry == (1 if i == j else 0)


def test_adjugate_identity():
    m = ((2, -1), (-2, 2))
    adj, det = adjugate_and_det(m)
    assert det == 2
    for i in range(2):
        for j in range(2):
            assert sum(adj[i][k] * m[k][j] for k in range(2)) == det * (i == j)


def test_row_hnf_known():
    assert row_hnf([(2, 4), (1, 1)], 2) == [(1, 1), (0, 2)]
    assert row_hnf([(0, 0)], 2) == []
    assert row_hnf([(2, 1)], 2) == [(2, 1)]


def test_row_hnf_transform_consistency():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(m)]
        h, u = row_hnf_transform(rows, n)
        for i in range(m):
            recon = tuple(sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n))
            assert recon == h[i]
        assert abs(determinant(u)) == 1


def test_integer_kernel_exact():
    kernel = integer_kernel([(1, 2, 3)], 3)
    assert len(kernel) == 2
    for row in kernel:
        assert row[0] + 2 * row[1] + 3 * row[2] == 0
    # the kernel lattice is pure: (1, 1, -1) must be a member
    assert lattice_member((1, 1, -1), kernel)


def test_integer_preimage():
    a = [(2, 1, 0), (0, 1, 1)]
    x = integer_preimage(a, (3, 2), 3)
    assert x is not None
    assert (2 * x[0] + x[1], x[1] + x[2]) == (3, 2)
    assert integer_preimage([(2, 0)], (1,), 2) is None


def test_coset_reduce_canonical():
    rows = [(1, 3), (0, 5)]
    # representatives of the same coset reduce identically
    assert coset_reduce((7, 11), rows) == coset_reduce((8, 19), rows)
    assert coset_reduce((0, 0), rows) == (0, 0)


def test_reduce_mod_subspace():
    # modulo the line through (0, 1), every ray maps into the x-axis
    assert reduce_mod_subspace((3, 7), [(0, 1)]) == (1, 0)
    assert reduce_mod_subspace((-2, 5), [(0, 1)]) == (-1, 0)


def test_matrix_rank():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(0, 0)]) == 0


def test_kernel_trivial_for_full_rank():
    assert integer_kernel([(1, 0), (0, 1)], 2) == []


# -- the two eliminations, against independent references ----------------------

@st.composite
def int_matrix(draw, square=False, size=5):
    """An integer matrix of 0-size rows and 0-size columns (square on
    request) with entries in [-4, 4]; small entries make singular matrices
    common."""
    rows = draw(st.integers(0, size))
    cols = rows if square else draw(st.integers(0, size))
    entry = st.integers(-4, 4)
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@settings(max_examples=300, deadline=None)
@given(int_matrix())
def test_matrix_rank_matches_fraction_rank(m):
    assert matrix_rank(m) == _rank([[Fraction(x) for x in row] for row in m])


@settings(max_examples=300, deadline=None)
@given(int_matrix(square=True))
def test_adjugate_and_det_against_determinant(m):
    n = len(m)
    det = determinant(m)
    if det == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            adjugate_and_det(m)
        return
    adj, d = adjugate_and_det(m)
    assert d == det
    for i in range(n):
        for j in range(n):
            assert sum(adj[i][k] * m[k][j] for k in range(n)) == det * (i == j)
            assert sum(m[i][k] * adj[k][j] for k in range(n)) == det * (i == j)


def test_adjugate_of_empty_matrix():
    assert adjugate_and_det(()) == ((), 1)


@settings(max_examples=300, deadline=None)
@given(int_matrix(square=True, size=4))
def test_rational_inverse_matches_gauss_jordan(m):
    try:
        expected = rational_inverse_by_gauss_jordan(m)
    except ValueError as exc:
        assert str(exc) == "matrix is singular"
        with pytest.raises(ValueError, match="matrix is singular"):
            rational_inverse(m)
        return
    assert rational_inverse(m) == expected


@st.composite
def hnf_matrix(draw):
    """An integer matrix of 0-5 rows and 0-5 columns with entries in
    [-5, 5], some of its rows and columns zeroed, and a pivot column count
    of at most its width."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    zero_rows = draw(st.sets(st.integers(0, 4)))
    zero_cols = draw(st.sets(st.integers(0, 4)))
    m = tuple(tuple(0 if i in zero_rows or j in zero_cols
                    else draw(st.integers(-5, 5)) for j in range(cols))
              for i in range(rows))
    return m, draw(st.integers(0, cols))


@settings(max_examples=300, deadline=None)
@given(hnf_matrix())
def test_hermite_elimination_matches_two_matrix_transform(case):
    rows, ncols = case
    h, u = row_hnf_transform(rows, ncols)
    assert (h, u) == row_hnf_transform_by_two_matrices(rows, ncols)
    assert row_hnf(rows, ncols) == [row for row in h if any(row)]
