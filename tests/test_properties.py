"""Property tests of the orbit kernel and the integer root-coordinate solver
on random weights, over every Levi subset of the fleet, of F4 and D5, and of
A2xT1 (central coordinates); of Weyl orbits and pair-cone halfspaces against
the enumerated Weyl group; of Hilbert bases on random small cones
against the box-scan oracle; and of lattice windows on random halfspace
lists against the box filter."""

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renner import (
    Coweight,
    LeviSubset,
    Weight,
    act,
    build_datum,
    build_parabolic,
    dominance_leq,
    dominant_representative,
    in_wm_dominant,
    vinberg_cone,
    weyl_orbit,
)
from renner.cones import RationalCone, enumerate_points, hilbert_basis
from renner.linalg import matrix_rank
from renner.root_datum import chamber_walk, is_dominant, simple_root_coordinates
from renner.vinberg import CpPoint, eval_at_cp

from .oracles import (
    dominance_by_elimination,
    enumerate_points_by_filter,
    hilbert_basis_by_box_scan,
    idempotent_value_by_elimination,
    pair_cone_halfspaces_by_group,
    weyl_orbit_by_group,
)

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "F4", "D5", "A2xT1"]


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


@PROPERTY
@given(instance_and_weight())
def test_walk_matches_witness(case):
    d, lv, v = case
    rep = chamber_walk(d, v, lv)
    rep_weight, witness = dominant_representative(d, Weight(v), lv)
    assert rep == rep_weight.coords
    assert act(witness, Weight(v)) == rep_weight
    assert is_dominant(rep_weight, lv)


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


# -- lattice windows -----------------------------------------------------------

@st.composite
def halfspace_list(draw):
    """Up to five random rows in dimension 1-6, sometimes with a duplicate
    row, a row and its negative (a lineality direction) or a zero row; the
    list may be empty."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(coords(dim, 3), max_size=5))
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
