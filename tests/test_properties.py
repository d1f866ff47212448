"""Property tests of the orbit kernel (one chamber walker per Levi subset,
against the product of the reflections it reports) and the integer
root-coordinate solver on random weights, over every Levi subset of the
fleet, of B4, F4 and D5, and of A2xT1 (central coordinates); of Weyl orbits
and pair-cone halfspaces against the enumerated Weyl group; of the
U(P)-invariant weights by Levi descent against the filtered full weight set,
and of their W_L-orbits through the Levi-dominant ones that uinv keeps; of
weight sets by root steps against the descent with reflection closure; of
finite type by leading principal minors against all principal minors on
random Z-matrices; of Hilbert bases on random small cones, and on random
4-dimensional cones with more rays than their dimension, against the
box-scan oracle; of lattice windows on random halfspace lists, in Z^d and in
random Hermite normal form sublattices, and on random cones of the pair
cone's shape, against the box filter; and of the double description, whose
rays must all survive the rank test of extreme rays, on random generator
and halfspace lists, on random
cones of dimension 4 to 6 with more rays than their dimension (which also
round-trip through both canonical forms and the dual), and on the fleet's
Renner, wedge and pair cones; and of the canonical generators, extreme rays
and lineality lattice that a cone given by generators reads off its
canonical halfspaces, against a second double description of those
halfspaces, on random cones of dimension 4 to 6 with and without lines and
on the wedge and Renner cones of the fleet, A2xT1, B4 and F4; and of the
canonical halfspaces that a cone given by halfspaces reads off its
canonical generators, against a second double description of those
generators, on random halfspace lists, on the halfspace twins of random
cones of dimension 4 to 6 with and without lines, on the pair cones from A1
to D4, and on the Levi root cones and the weight hull's cone K of every
Levi subset of the fleet, A2xT1, B4 and F4; and of the cone certificates of
duality, posU and wthull, which must stand for an empty window on random
wedge or Renner generators of A2, B2, G2, A1xA1 and A1xT1."""

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renner import (
    Coweight,
    LatticeMonoid,
    LeviSubset,
    ParabolicData,
    Weight,
    build_datum,
    build_parabolic,
    dominance_leq,
    dominant_representative,
    in_wm_dominant,
    vinberg_cone,
    weyl_orbit,
)
from renner import repr_weights
from renner.cones import (
    RationalCone,
    _double_description,
    _window_walk,
    dual_cone,
    enumerate_points,
    hilbert_basis,
)
from renner.linalg import (
    dot,
    integer_kernel,
    lattice_member,
    matrix_rank,
    primitive,
    vec_sub,
)
from renner.parabolic_monoid import (
    _duality_certified,
    _intersection_certified,
    _levi_root_cone,
    _weight_hull_certified,
    renner_cone,
)
from renner.repr_weights import dual_weyl_weights, up_invariant_weights
from renner.root_datum import (
    _check_finite_type,
    chamber_walker,
    is_dominant,
    simple_root_coordinates,
)
from renner.vinberg import CpPoint, eval_at_cp

from .oracles import (
    _extreme_filter,
    _solve_nonnegative,
    act,
    canonical_data_by_second_description,
    canonical_halfspaces_by_second_description,
    chamber_walk,
    check_duality_by_window,
    check_finite_type_by_all_minors,
    check_intersection_lemma_by_window,
    check_weight_hull_by_window,
    cone_member_by_vertex_search,
    dominance_by_elimination,
    dominant_representative_by_products,
    dual_weyl_weights_by_reflection_closure,
    enumerate_points_by_filter,
    hilbert_basis_by_box_scan,
    idempotent_value_by_elimination,
    invariant_weights_by_descent,
    pair_cone_halfspaces_by_group,
    weyl_orbit_by_group,
)

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "B4", "F4", "D5", "A2xT1"]


def levi_subsets(type_string):
    labels = build_datum(type_string).weight_basis_labels
    return [nodes for size in range(len(labels) + 1)
            for nodes in itertools.combinations(labels, size)]


INSTANCES = [(t, nodes) for t in TYPES for nodes in levi_subsets(t)]
PROPERTY = settings(max_examples=150, deadline=None)


@functools.lru_cache(maxsize=None)
def parabolic(type_string, nodes):
    return build_parabolic(build_datum(type_string), LeviSubset(frozenset(nodes)))


def coords(dim, bound=6):
    return st.tuples(*[st.integers(-bound, bound)] * dim)


@st.composite
def instance_and_weight(draw):
    t, nodes = draw(st.sampled_from(INSTANCES))
    d = build_datum(t)
    return d, LeviSubset(frozenset(nodes)), draw(coords(d.dim))


@st.composite
def root_combination(draw, d):
    """A weight: a random integer combination of the simple roots, plus
    (sometimes) a small vector that may leave the root lattice."""
    v = [0] * d.dim
    for label in d.weight_basis_labels:
        n = draw(st.integers(-1, 3))
        v = [x + n * y for x, y in zip(v, d.simple_root(label).coords)]
    noise = draw(st.one_of(st.just((0,) * d.dim), coords(d.dim, 1)))
    return tuple(x + e for x, e in zip(v, noise))


@functools.lru_cache(maxsize=None)
def walker(d, lv):
    return chamber_walker(d, lv)


@PROPERTY
@given(instance_and_weight())
def test_walk_matches_witness(case):
    # One walker per instance serves every weight drawn for it.
    d, lv, v = case
    labels = []
    rep = walker(d, lv)(v, labels)
    assert rep == chamber_walk(d, v, lv)
    rep_weight, witness = dominant_representative(d, Weight(v), lv)
    assert rep == rep_weight.coords
    assert witness.word == tuple(reversed(labels))
    assert act(witness, Weight(v)) == rep_weight
    assert is_dominant(rep_weight, lv)
    _, expected = dominant_representative_by_products(d, Weight(v), lv)
    assert ((witness.word, witness.weight_matrix, witness.coweight_matrix)
            == (expected.word, expected.weight_matrix, expected.coweight_matrix))


@PROPERTY
@given(st.data())
def test_dominance_leq_matches_fraction_reference(data):
    d, lv, a = data.draw(instance_and_weight())
    b = tuple(x + y for x, y in zip(a, data.draw(root_combination(d))))
    roots = [d.simple_root(i).coords for i in lv.sorted_nodes()]
    assert dominance_leq(d, Weight(a), Weight(b), lv) == dominance_by_elimination(roots, a, b)


@PROPERTY
@given(st.data())
def test_eval_at_cp_matches_fraction_reference(data):
    t, nodes = data.draw(st.sampled_from(INSTANCES))
    d = build_datum(t)
    v = data.draw(root_combination(d))
    roots = [d.simple_root(i).coords for i in d.weight_basis_labels]
    expected = idempotent_value_by_elimination(roots, {i - 1 for i in nodes}, v)
    cp = CpPoint(LeviSubset(frozenset(nodes)))
    if expected is None:
        with pytest.raises(ValueError):
            eval_at_cp(d, Weight(v), cp)
    else:
        assert eval_at_cp(d, Weight(v), cp) == expected
    if not any(v[d.rank:]):
        coeffs = simple_root_coordinates(d, Weight(v))
        recon = [sum(c * r[i] for c, r in zip(coeffs, roots)) for i in range(d.dim)]
        assert tuple(recon) == v


@PROPERTY
@given(instance_and_weight())
def test_orbit_membership_matches_pairing(case):
    d, lv, v = case
    pd = parabolic(d.type_string, lv.sorted_nodes())
    pairing_side = all(sum(x * g for x, g in zip(v, gen)) >= 0
                       for gen in pd.pos_up.generators)
    assert in_wm_dominant(pd, Weight(v)) == pairing_side


# -- Weyl orbits -----------------------------------------------------------------

@pytest.mark.parametrize("kind", [Weight, Coweight])
@PROPERTY
@given(case=instance_and_weight())
def test_weyl_orbit_matches_group_image(kind, case):
    d, lv, v = case
    orbit = weyl_orbit(d, lv, kind(v))
    assert orbit == weyl_orbit_by_group(d, lv, kind(v))
    assert all(type(x) is kind for x in orbit)


SEMISIMPLE = [t for t in TYPES if build_datum(t).central_rank == 0]


@settings(max_examples=len(SEMISIMPLE), deadline=None)
@given(st.sampled_from(SEMISIMPLE))
def test_pair_cone_halfspaces_match_group_oracle(type_string):
    d = build_datum(type_string)
    halfspaces = vinberg_cone(d).cone.halfspaces
    assert len(set(halfspaces)) == len(halfspaces)
    assert set(halfspaces) == set(pair_cone_halfspaces_by_group(d))


PAIR_TYPES = ["A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "A4", "B4", "D4"]


@st.composite
def weight_pair(draw):
    """A pair cone from A1 to D4 and a pair (first, second) in [-4, 4]^2n."""
    d = build_datum(draw(st.sampled_from(PAIR_TYPES)))
    return d, draw(coords(d.rank, 4)), draw(coords(d.rank, 4))


@PROPERTY
@given(weight_pair())
def test_pair_cone_membership_is_dominance_over_the_dominant_weight(case):
    # (f, s) lies in the pair cone exactly when s - f+ has non-negative
    # root coordinates, f+ the dominant weight of the orbit of f (taken
    # from the enumerated group): the n positive-root functionals decide
    # what the cone's halfspaces decide, and a Fraction solve agrees.
    d, first, second = case
    vc = vinberg_cone(d)
    (top,) = [w.coords for w in weyl_orbit_by_group(d, d.full_levi(), Weight(first))
              if all(x >= 0 for x in w.coords)]
    gap = vec_sub(second, top)
    above = all(dot(u, gap) >= 0 for u in vc.functionals)
    assert vc.cone.contains(first + second) == above
    roots = [d.simple_root(i).coords for i in d.weight_basis_labels]
    assert above == (_solve_nonnegative(roots, gap) is not None)


# -- U(P)-invariant weights -----------------------------------------------------

DESCENT_TYPES = ["A2", "A2xT1", "B2", "G2", "A3", "B3", "C3"]


@st.composite
def levi_and_highest_weight(draw):
    t = draw(st.sampled_from(DESCENT_TYPES))
    d = build_datum(t)
    nodes = draw(st.sampled_from(levi_subsets(t)))
    return d, LeviSubset(frozenset(nodes)), Weight(draw(st.tuples(*[st.integers(0, 2)] * d.dim)))


@PROPERTY
@given(levi_and_highest_weight())
def test_invariant_weights_by_descent_match_full_set_filter(case):
    d, lv, hw = case
    full = dual_weyl_weights(d, d.full_levi(), hw)
    assert invariant_weights_by_descent(d, lv, hw) == up_invariant_weights(full, lv)


# Fleet and A2xT1 with highest weights in [0,2]^rank and central coordinates
# in [-2,2]; A4, B4 and D4 with highest weights in [0,1]^4.
KEPT_CASES = [(t, 2) for t in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]]
KEPT_CASES += [(t, 1) for t in ["A4", "B4", "D4"]]


@pytest.mark.parametrize("type_string, coord_bound", KEPT_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_levi_dominant_descent_meets_each_invariant_orbit_once(type_string, coord_bound,
                                                                  data):
    # uinv's containment side: the descent by the positive roots of L keeps
    # one Levi-dominant weight in each W_L-orbit of the invariant weights.
    d = build_datum(type_string)
    lv = LeviSubset(frozenset(data.draw(st.sampled_from(levi_subsets(type_string)))))
    root_part = data.draw(st.tuples(*[st.integers(0, coord_bound)] * d.rank))
    hw = Weight(root_part + data.draw(st.tuples(*[st.integers(-2, 2)] * d.central_rank)))
    kept = repr_weights._descend(d, d.full_levi(), hw,
                                 repr_weights._positive_roots(d, lv), lv.nodes)
    assert len(set(kept)) == len(kept)
    assert all(is_dominant(v, lv) for v in kept)
    orbits = [weyl_orbit(d, lv, v) for v in kept]
    assert sum(map(len, orbits)) == len(frozenset().union(*orbits))
    assert frozenset().union(*orbits) == invariant_weights_by_descent(d, lv, hw).elements


# Fleet and A2xT1 with highest weights in [0,2]^rank and central coordinates
# in [-2,2]; D4 with highest weights in [0,1]^4.  A coordinate off the Levi
# may also be negative (down to -2, or -1 on D4): such a highest weight is
# dominant for the Levi only, and only a membership test on the Levi subset
# (not on the whole diagram) gets its weight set right.
WEIGHT_SET_CASES = [(t, 2) for t in
                    ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]]
WEIGHT_SET_CASES.append(("D4", 1))


@pytest.mark.parametrize("type_string, coord_bound", WEIGHT_SET_CASES)
@PROPERTY
@given(data=st.data())
def test_dual_weyl_weights_match_reflection_closure(type_string, coord_bound, data):
    d = build_datum(type_string)
    lv = LeviSubset(frozenset(data.draw(st.sampled_from(levi_subsets(type_string)))))
    root_part = st.tuples(*[st.integers(0 if i in lv.nodes else -coord_bound, coord_bound)
                            for i in d.weight_basis_labels])
    hw = Weight(data.draw(root_part)
                + data.draw(st.tuples(*[st.integers(-2, 2)] * d.central_rank)))
    assert dual_weyl_weights(d, lv, hw) == dual_weyl_weights_by_reflection_closure(d, lv, hw)


# -- finite type -----------------------------------------------------------------

@st.composite
def z_matrix(draw):
    """A square matrix of size 1-7 with diagonal 2, off-diagonal entries in
    [-3, 0] and a symmetric zero pattern, about two thirds of the pairs
    zero."""
    n = draw(st.integers(1, 7))
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.integers(0, 2)) == 0:
            c[i][j] = draw(st.integers(-3, -1))
            c[j][i] = draw(st.integers(-3, -1))
    return tuple(map(tuple, c))


def _finite_type_verdict(check, c):
    try:
        check(c)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(z_matrix())
def test_leading_minors_decide_finite_type_like_all_minors(c):
    assert (_finite_type_verdict(_check_finite_type, c)
            == _finite_type_verdict(check_finite_type_by_all_minors, c))


def test_finite_type_rank_bound_matches_all_minors():
    c = tuple(tuple(2 if i == j else 0 for j in range(13)) for i in range(13))
    message = "rank above the supported bound (12)"
    assert _finite_type_verdict(_check_finite_type, c) == message
    assert _finite_type_verdict(check_finite_type_by_all_minors, c) == message


# -- Hilbert bases -------------------------------------------------------------

CONE_KINDS = ["full", "lower", "lineality", "halfspaces"]


@st.composite
def random_cone(draw, kind):
    """A cone of dimension 2 or 3 with small entries.  "full": a pointed
    full-dimensional cone; "lower": generators in the span of fewer
    vectors than the dimension; "lineality": a line through the origin plus
    more generators; "halfspaces": given by one to three halfspaces."""
    dim = draw(st.integers(2, 3))
    if kind == "halfspaces":
        forms = draw(st.lists(coords(dim, 2), min_size=1, max_size=3))
        return RationalCone.from_halfspaces(dim, forms)
    if kind == "full":
        gens = draw(st.lists(
            st.tuples(st.integers(1, 3), *[st.integers(-2, 2)] * (dim - 1)),
            min_size=dim, max_size=dim + 2))
        assume(matrix_rank(gens) == dim)
    elif kind == "lower":
        span = draw(st.lists(coords(dim, 2), min_size=dim - 1, max_size=dim - 1))
        combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (dim - 1)),
                               min_size=1, max_size=4))
        gens = [tuple(sum(a * u[j] for a, u in zip(c, span)) for j in range(dim))
                for c in combos]
    else:
        line = draw(coords(dim, 2))
        assume(any(line))
        gens = [line, tuple(-x for x in line)]
        gens += draw(st.lists(coords(dim, 2), min_size=1, max_size=2))
    return RationalCone.from_generators(dim, gens)


@pytest.mark.parametrize("kind", CONE_KINDS)
@PROPERTY
@given(data=st.data())
def test_hilbert_basis_matches_box_scan(kind, data):
    cone = data.draw(random_cone(kind))
    assert hilbert_basis(cone) == hilbert_basis_by_box_scan(cone)


@st.composite
def wide_cone(draw, dims=(4, 6), bound=2, extra=3, lines=0):
    """A pointed full-dimensional cone of dimension ``dims[0]`` to
    ``dims[1]``, spanned by dim + 1 to dim + ``extra`` generators whose first
    entry lies in [1, bound] and whose others lie in [-bound, bound].  Unlike
    the cones of ``random_cone``, these may have facets with more rays than
    their dimension, whose intersections with the other facets include
    faces below the facets' own facets: there face selection by inclusion
    has work to do.  With ``lines``, that many non-zero vectors of the same
    box are added with both signs, and the cone is no longer pointed."""
    dim = draw(st.integers(*dims))
    gens = draw(st.lists(
        st.tuples(st.integers(1, bound), *[st.integers(-bound, bound)] * (dim - 1)),
        min_size=dim + 1, max_size=dim + extra))
    assume(matrix_rank(gens) == dim)
    for _ in range(lines):
        line = draw(coords(dim, bound).filter(any))
        gens += [line, tuple(-x for x in line)]
    return RationalCone.from_generators(dim, gens)


@settings(max_examples=8, deadline=None)
@given(wide_cone(dims=(4, 4), bound=1, extra=2))
def test_hilbert_basis_matches_box_scan_on_4_dim_cones(cone):
    assert hilbert_basis(cone) == hilbert_basis_by_box_scan(cone)


# -- lattice windows -----------------------------------------------------------

@st.composite
def halfspace_list(draw, max_rows=5):
    """Up to ``max_rows`` random rows in dimension 1-6, sometimes with a
    duplicate row, a row and its negative (a lineality direction) or a zero
    row; the list may be empty."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(coords(dim, 3), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):
        rows.append(tuple(-x for x in draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append((0,) * dim)
    return dim, draw(st.permutations(rows))


@PROPERTY
@given(halfspace_list(), st.integers(0, 3))
def test_enumerate_points_matches_box_filter(case, bound):
    dim, rows = case
    cone = RationalCone.from_halfspaces(dim, rows)
    assert enumerate_points(cone, bound) == enumerate_points_by_filter(cone, bound)


@st.composite
def hnf_basis(draw, dim, free=0):
    """A square row HNF basis with pivots 1-4 (entries above each pivot
    reduced into [0, pivot)); the first ``free`` pivots are 1."""
    pivots = [1] * free + draw(st.lists(st.integers(1, 4), min_size=dim - free,
                                        max_size=dim - free))
    basis = []
    for k in range(dim):
        row = [0] * dim
        row[k] = pivots[k]
        for j in range(k + 1, dim):
            row[j] = draw(st.integers(0, pivots[j] - 1))
        basis.append(tuple(row))
    return tuple(basis)


@st.composite
def lattice_window(draw):
    """A square row HNF basis in dimension 1-6, and halfspace rows of the
    same dimension: random rows, then sometimes a duplicate, a negated row,
    rows that share a long suffix with a drawn row, and a zero row."""
    dim = draw(st.integers(1, 6))
    basis = draw(hnf_basis(dim))
    rows = draw(st.lists(coords(dim, 3), max_size=5))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):
        rows.append(tuple(-x for x in draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        cut = draw(st.integers(0, dim))
        rows.append(draw(coords(cut, 3)) + row[cut:])
    if draw(st.booleans()):
        rows.append((0,) * dim)
    return dim, basis, draw(st.permutations(rows))


@PROPERTY
@given(lattice_window(), st.integers(0, 3))
def test_window_walk_on_lattice_matches_filtered_box(case, bound):
    dim, basis, rows = case
    cone = RationalCone.from_halfspaces(dim, rows)
    expected = [p for p in enumerate_points_by_filter(cone, bound)
                if lattice_member(p, basis)]
    assert _window_walk(rows, dim, bound, basis) == expected


@st.composite
def pair_shaped_window(draw):
    """Halfspaces of the pair cone's shape in dimension 2m, m = 2 or 3: the
    rows (-x, u) for 1-3 non-negative u, each with a random set of x closed
    under negation, and an HNF basis whose first m pivots are 1, as for the
    pair lattice.  Rows that share u share their suffix from depth m on:
    many halfspaces, few distinct suffixes."""
    m = draw(st.integers(2, 3))
    us = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m),
                       min_size=1, max_size=3, unique=True))
    rows = [tuple(-a for a in x) + u for u in us
            for y in draw(st.lists(coords(m, 2), min_size=1, max_size=3, unique=True))
            for x in (y, tuple(-a for a in y))]
    return 2 * m, draw(hnf_basis(2 * m, m)), draw(st.permutations(rows))


@PROPERTY
@given(pair_shaped_window(), st.integers(1, 2))
def test_window_walk_memo_on_pair_shaped_cones_matches_filtered_box(case, bound):
    dim, basis, rows = case
    cone = RationalCone.from_halfspaces(dim, rows)
    expected = [p for p in enumerate_points_by_filter(cone, bound)
                if lattice_member(p, basis)]
    assert _window_walk(rows, dim, bound, basis) == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(lattice_window(), pair_shaped_window()), st.integers(0, 2), st.data())
def test_window_walk_from_origins_matches_filtered_box(case, bound, data):
    # From each origin o, the box points x with h.(x - o) >= 0 on the coset
    # o + L, in lexicographic order.
    dim, basis, rows = case
    origins = data.draw(st.lists(coords(dim, 3), max_size=3))
    box = list(itertools.product(range(-bound, bound + 1), repeat=dim))
    expected = [[x for x in box
                 if all(dot(h, vec_sub(x, o)) >= 0 for h in rows)
                 and lattice_member(vec_sub(x, o), basis)] for o in origins]
    assert list(_window_walk(rows, dim, bound, basis, origins=origins)) == expected


# -- double description --------------------------------------------------------

def assert_dd_keeps_only_extreme_rays(cone):
    """On the cone's given representation, and on the other one that the
    cone computes from it, the rank test of extreme rays keeps every ray the
    double description returns (run on the rows as ``RationalCone`` does)."""
    if cone._raw_generators is not None:
        given, other = cone._raw_generators, cone.canonical_halfspaces()
    else:
        given, other = cone._raw_halfspaces, cone.canonical_generators()
    dim = cone.ambient_dim
    for rows in (given, other):
        cons = sorted(set(primitive(c) for c in rows if any(c)))
        rays = _double_description(cons, dim)
        lineality = len(integer_kernel(cons, dim)) if cons else dim
        assert _extreme_filter(rays, cons, lineality, dim) == rays


@pytest.mark.parametrize("direction", ["generators", "halfspaces"])
@PROPERTY
@given(case=halfspace_list(max_rows=8))
def test_double_description_keeps_only_extreme_rays(direction, case):
    dim, rows = case
    if direction == "generators":
        cone = RationalCone.from_generators(dim, rows)
    else:
        cone = RationalCone.from_halfspaces(dim, rows)
    assert_dd_keeps_only_extreme_rays(cone)


@PROPERTY
@given(wide_cone())
def test_double_description_keeps_only_extreme_rays_on_wide_cones(cone):
    assert_dd_keeps_only_extreme_rays(cone)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_double_description_round_trip_on_wide_cones(data):
    # Both canonical forms rebuild the cone and dualizing twice gives it
    # back.  A point the cone holds is a combination of the generators
    # (vertex search); a point it rejects has a canonical halfspace that is
    # valid on the generators and negative on it (a Farkas certificate).
    cone = data.draw(wide_cone())
    dim, gens = cone.ambient_dim, cone._raw_generators
    assert RationalCone.from_generators(dim, cone.canonical_generators()) == cone
    assert RationalCone.from_halfspaces(dim, cone.canonical_halfspaces()) == cone
    assert dual_cone(dual_cone(cone)) == cone
    v = data.draw(coords(dim, 3))
    if cone.contains(v):
        assert cone_member_by_vertex_search(gens, v)
    else:
        assert any(dot(h, v) < 0 and all(dot(h, g) >= 0 for g in gens)
                   for h in cone.canonical_halfspaces())


RENNER_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]


@pytest.mark.parametrize("type_string", RENNER_TYPES)
def test_double_description_exact_on_fleet_cones(type_string):
    for nodes in levi_subsets(type_string):
        pd = parabolic(type_string, nodes)
        for cone in (renner_cone(pd), pd.pos_up.cone()):
            assert_dd_keeps_only_extreme_rays(cone)


@pytest.mark.parametrize("type_string", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4"])
def test_double_description_exact_on_pair_cones(type_string):
    assert_dd_keeps_only_extreme_rays(vinberg_cone(build_datum(type_string)).cone)


# -- canonical data read off the facets -----------------------------------------

def assert_canonical_data_match_second_description(cone):
    """A cone given by generators reads its canonical generators, extreme
    rays and lineality lattice off its canonical halfspaces; a second double
    description of those halfspaces must find the same."""
    generators, rays, lattice = canonical_data_by_second_description(cone)
    assert cone.canonical_generators() == generators
    assert set(cone.extreme_rays()) == set(rays)
    assert cone.lineality_lattice() == lattice


@pytest.mark.parametrize("lines", [0, 1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_data_from_facets_match_second_description_on_wide_cones(lines, data):
    assert_canonical_data_match_second_description(data.draw(wide_cone(lines=lines)))


@pytest.mark.parametrize("type_string", RENNER_TYPES + ["B4", "F4"])
def test_canonical_data_from_facets_match_second_description_on_parabolic_cones(type_string):
    # Fresh cones, so that no check has canonicalised them before.
    for nodes in levi_subsets(type_string):
        pd = parabolic(type_string, nodes)
        dim = pd.datum.dim
        for gens in (pd.pos_up.generators, [w.coords for w in pd.renner_generators]):
            assert_canonical_data_match_second_description(
                RationalCone.from_generators(dim, gens))


# -- canonical halfspaces read off the generators -------------------------------

def assert_canonical_halfspaces_match_second_description(cone):
    """A cone given by halfspaces reads its canonical halfspaces off its
    canonical generators; a second double description of those generators
    must find the same."""
    assert cone.canonical_halfspaces() == canonical_halfspaces_by_second_description(cone)


@PROPERTY
@given(halfspace_list(max_rows=8))
def test_canonical_halfspaces_read_off_match_second_description(case):
    dim, rows = case
    assert_canonical_halfspaces_match_second_description(
        RationalCone.from_halfspaces(dim, rows))


@pytest.mark.parametrize("lines", [0, 1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_halfspaces_read_off_match_second_description_on_wide_cones(lines, data):
    cone = data.draw(wide_cone(lines=lines))
    assert_canonical_halfspaces_match_second_description(
        RationalCone.from_halfspaces(cone.ambient_dim, cone.canonical_halfspaces()))


@pytest.mark.parametrize("type_string", ["A1", "A2", "B2", "G2", "A3", "B3", "C3",
                                         "A4", "B4", "D4"])
def test_canonical_halfspaces_read_off_match_second_description_on_pair_cones(type_string):
    # A fresh twin, since the pair cone is cached on the datum.
    cone = vinberg_cone(build_datum(type_string)).cone
    assert_canonical_halfspaces_match_second_description(
        RationalCone.from_halfspaces(cone.ambient_dim, cone.halfspaces))


@pytest.mark.parametrize("type_string", RENNER_TYPES + ["B4", "F4"])
def test_canonical_halfspaces_read_off_match_second_description_on_parabolic_cones(type_string):
    # Fresh cones, so that no check has canonicalised them before: both Levi
    # root cones and K, the wedge cone meet the Levi-dominant cone, which
    # the former wthull certificate (``weight_hull_certified_by_cones``)
    # reads.
    for nodes in levi_subsets(type_string):
        pd = parabolic(type_string, nodes)
        dim = pd.datum.dim
        walls = _levi_root_cone(pd, 1).halfspaces
        wedge = RationalCone.from_generators(dim, pd.pos_up.generators)
        k = RationalCone.from_halfspaces(dim, [*wedge.canonical_halfspaces(), *walls])
        for cone in (_levi_root_cone(pd, 1), _levi_root_cone(pd, -1), k):
            assert_canonical_halfspaces_match_second_description(cone)


# -- soundness of the cone certificates ------------------------------------------

CERTIFIED_TYPES = ["A2", "B2", "G2", "A1xA1", "A1xT1"]


@st.composite
def random_parabolic(draw):
    """A parabolic of a small type and a random Levi subset whose wedge or
    Renner slot holds random generators, sometimes with the instance's own.
    The other slot holds the canonical halfspaces of the drawn cone, so the
    two cones are dual and the cone sides of duality and posU agree.  Drawn
    Renner generators are closed under the Levi-Weyl group, so that the
    stability fact of duality can hold."""
    t = draw(st.sampled_from(CERTIFIED_TYPES))
    nodes = draw(st.sampled_from(levi_subsets(t)))
    pd = parabolic(t, nodes)
    d, lv = pd.datum, pd.levi
    keep = draw(st.booleans())
    drawn = draw(st.lists(coords(d.dim, 2), min_size=1, max_size=3))
    if draw(st.booleans()):
        wedge = LatticeMonoid(d.dim, [*(pd.pos_up.generators if keep else ()), *drawn])
        renner = tuple(Weight(h) for h in wedge.cone().canonical_halfspaces())
    else:
        seeds = [*(w.coords for w in pd.renner_generators if keep), *drawn]
        orbits = sorted({w.coords for v in seeds for w in weyl_orbit(d, lv, Weight(v))})
        renner = tuple(Weight(c) for c in orbits)
        wedge = LatticeMonoid(
            d.dim, RationalCone.from_generators(d.dim, orbits).canonical_halfspaces())
    return ParabolicData(d, lv, wedge, renner)


@PROPERTY
@given(pd=random_parabolic())
def test_cone_certificates_are_sound_on_random_generators(pd):
    # A certificate that holds, with its cone side, stands for the whole
    # lattice, so the window walk at bound 2 finds no counterexample; the
    # window oracles compare the cones too, so a draw whose slots were not
    # dual would fail here as well.
    for certified, window in ((_duality_certified, check_duality_by_window),
                              (_intersection_certified, check_intersection_lemma_by_window),
                              (_weight_hull_certified, check_weight_hull_by_window)):
        if certified(pd):
            report = window(pd, 2)
            assert report.passed, (certified.__name__, report.counterexamples)
