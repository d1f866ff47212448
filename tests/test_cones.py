import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renner import budgets, build_datum, cones, levi
from renner.cli import parse_levi
from renner.cones import (
    LatticeMonoid,
    RationalCone,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    is_saturated,
    monoid_contains,
)
from renner.errors import BudgetExceededError, SearchBudgetExceededError
from renner.parabolic_monoid import build_parabolic, renner_cone
from renner.vinberg import vinberg_cone

from .oracles import (
    box,
    cone_member_by_vertex_search,
    face_rank_of,
    facets_by_rank,
    intersect,
    is_saturated_window_first,
    monoid_member_by_exhaustion,
    pulling_triangulation_by_rank,
)
from .test_properties import random_cone, wide_cone


def orthant(dim):
    return RationalCone.from_generators(
        dim, [[int(i == j) for j in range(dim)] for i in range(dim)])


def cone_fleet():
    """Small stable of cones exercising pointed, wedged, lower-dimensional,
    full and zero cases, plus the orbit cones of the A2 and B2 parabolics."""
    cones = [
        orthant(2),
        RationalCone.from_generators(2, [(0, 1), (1, 1)]),
        RationalCone.from_generators(2, [(1, 0), (1, 2)]),
        RationalCone.from_generators(2, []),                      # zero cone
        RationalCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]),  # halfplane
        RationalCone.from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
        RationalCone.from_halfspaces(3, [(1, 0, 0), (0, 1, 0)]),
        RationalCone.from_halfspaces(2, [(2, -1)]),
    ]
    for name in ["A2", "B2", "G2"]:
        d = build_datum(name)
        for nodes in [(), (1,), (1, 2)]:
            pd = build_parabolic(d, levi(*nodes))
            cones.append(renner_cone(pd))
            cones.append(pd.pos_up.cone())
    return cones


# -- duality -------------------------------------------------------------------

def test_dual_orthant_self_dual():
    assert dual_cone(orthant(2)) == orthant(2)


def test_dual_wedge_frozen_value():
    # brute halfplane oracle: {y : y2 >= 0, y1 + y2 >= 0} has extreme rays
    # (1, 0) and (-1, 1); frozen after checking the window oracle below.
    c = RationalCone.from_generators(2, [(0, 1), (1, 1)])
    d = dual_cone(c)
    assert d.canonical_generators() == ((-1, 1), (1, 0))
    for y in box(2, 4):
        direct = all(g[0] * y[0] + g[1] * y[1] >= 0 for g in [(0, 1), (1, 1)])
        assert d.contains(y) == direct


def test_dual_of_zero_cone_is_everything():
    c = RationalCone.from_generators(2, [])
    d = dual_cone(c)
    assert d.canonical_generators() == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert all(d.contains(y) for y in box(2, 3))


def test_dual_dimension_cap():
    with pytest.raises(BudgetExceededError):
        RationalCone.from_generators(13, [])


def test_dual_involution_on_fleet():
    for c in cone_fleet():
        assert dual_cone(dual_cone(c)) == c


def test_halfspaces_of_low_dimensional_cone():
    c = RationalCone.from_generators(2, [(1, 0)])
    assert c.contains((2, 0))
    assert not c.contains((2, 1))
    assert not c.contains((-1, 0))


# -- membership ------------------------------------------------------------------

def test_contains_examples():
    assert orthant(2).contains((3, 5))
    assert not RationalCone.from_generators(2, [(0, 1), (1, 1)]).contains((2, -1))
    for c in cone_fleet():
        assert c.contains((0,) * c.ambient_dim)


def test_farkas_consistency_against_vertex_search():
    rng = random.Random(11)
    for c in cone_fleet():
        if c.ambient_dim > 3:
            continue
        gens = c.canonical_generators()
        for _ in range(200):
            v = tuple(rng.randrange(-4, 5) for _ in range(c.ambient_dim))
            assert c.contains(v) == cone_member_by_vertex_search(gens, v)


# -- monoid membership -------------------------------------------------------------

def test_monoid_contains_examples():
    d = build_datum("A2")
    pd = build_parabolic(d, levi(1))
    m = pd.pos_up
    assert m.generators == ((0, 1), (1, 1))
    assert monoid_contains(m, (1, 2))  # (0,1) + (1,1), cross-checked below
    assert monoid_member_by_exhaustion(m.generators, (1, 2), 4)
    assert monoid_contains(m, (0, 0))
    assert not monoid_contains(m, (1, 0))


def test_monoid_contains_vs_exhaustion():
    gens = [(2, 0), (0, 1), (1, 1)]
    m = LatticeMonoid(2, gens)
    for v in box(2, 4):
        assert monoid_contains(m, v) == monoid_member_by_exhaustion(gens, v, 8)


def test_monoid_with_units():
    m = LatticeMonoid(2, [(1, 0), (-1, 0), (0, 1)])
    assert monoid_contains(m, (-3, 2))
    assert not monoid_contains(m, (0, -1))
    scaled = LatticeMonoid(1, [(2,), (-2,)])
    assert monoid_contains(scaled, (4,))
    assert not monoid_contains(scaled, (3,))


def test_monoid_budget_exhaustion_is_distinct(monkeypatch):
    d = build_datum("A2")
    m = build_parabolic(d, levi(1)).pos_up
    monkeypatch.setenv("RENNER_BUDGET", "1")
    with pytest.raises(SearchBudgetExceededError):
        monoid_contains(m, (3, 6))


# -- hilbert bases ------------------------------------------------------------------

def test_hilbert_orthant():
    assert hilbert_basis(orthant(2)) == ((0, 1), (1, 0))


def test_hilbert_wedge_with_interior_generator():
    c = RationalCone.from_generators(2, [(1, 0), (1, 2)])
    assert hilbert_basis(c) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_simplicial_unimodular():
    c = RationalCone.from_generators(2, [(0, 1), (1, 1)])
    assert hilbert_basis(c) == ((0, 1), (1, 1))


def test_hilbert_full_lattice():
    c = RationalCone.from_halfspaces(1, [])
    assert hilbert_basis(c) == ((-1,), (1,))


def test_hilbert_halfplane():
    c = RationalCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert hilbert_basis(c) == ((-1, 0), (0, 1), (1, 0))


def test_hilbert_against_box_oracle():
    # every cone lattice point in a window decomposes into basis elements;
    # for pointed cones, every basis element is irreducible in the window
    for c in cone_fleet():
        if c.ambient_dim > 2:
            continue
        basis = hilbert_basis(c)
        m = LatticeMonoid(c.ambient_dim, basis)
        points = [p for p in box(c.ambient_dim, 4) if c.contains(p)]
        for p in points:
            assert monoid_contains(m, p)
        if c.lineality_lattice():
            continue  # with units, irreducibility is not the right notion
        pointset = set(points)
        for h in basis:
            if h not in pointset or max(abs(x) for x in h) > 2:
                continue
            decomposable = any(
                a != (0,) * c.ambient_dim and a != h
                and tuple(x - y for x, y in zip(h, a)) in pointset
                and any(x - y for x, y in zip(h, a))
                for a in pointset
            )
            assert not decomposable, (c, h)


def test_hilbert_minimality_on_fleet():
    for c in cone_fleet():
        if c.ambient_dim > 3:
            continue
        basis = hilbert_basis(c)
        for h in basis:
            rest = LatticeMonoid(c.ambient_dim, [b for b in basis if b != h])
            assert not monoid_contains(rest, h), (c, h)


@pytest.mark.parametrize("name,size", [("G2", 14), ("A3", 20)])
def test_pair_cone_hilbert_basis_is_irreducible(name, size):
    cone = vinberg_cone(build_datum(name)).cone
    basis = hilbert_basis(cone)
    assert len(basis) == size
    for h in basis:
        rest = LatticeMonoid(cone.ambient_dim, [b for b in basis if b != h])
        assert not monoid_contains(rest, h), (name, h)


def test_hilbert_dimension_cap(monkeypatch):
    with pytest.raises(BudgetExceededError):
        hilbert_basis(orthant(9))
    monkeypatch.setattr(budgets, "DEFAULT_HILBERT_DIM", 9)
    assert hilbert_basis(orthant(9))


# -- faces of the Hilbert-basis triangulation ----------------------------------------

def hilbert_inputs(cone_list):
    """Every (rays, forms) that ``cones._hilbert_full`` receives while
    ``hilbert_basis`` runs over the cones."""
    seen = []
    original = cones._hilbert_full

    def recording(rays, forms):
        forms = list(forms)
        seen.append((list(rays), forms))
        return original(rays, forms)

    cones._hilbert_full = recording
    try:
        for c in cone_list:
            hilbert_basis(c)
    finally:
        cones._hilbert_full = original
    return seen


def face_mismatch(rays, forms):
    """None when the facets (keys, forms and order) and the simplices of the
    pulling triangulation equal those of the rank oracle, else what differs."""
    rank = len(rays[0])
    face_rank = face_rank_of(rays)
    expected = facets_by_rank(rays, forms, rank, face_rank)
    facets = cones._facets(rays, forms)
    if list(facets.items()) != list(expected.items()):
        return "facets", rays, forms
    simplices = cones._pulling_triangulation(len(rays), facets, rank)
    if simplices != pulling_triangulation_by_rank(len(rays), expected, rank, face_rank):
        return "simplices", rays, forms
    return None


@pytest.fixture(scope="module")
def recorded_inputs():
    """The pointed cores that ``hilbert_basis`` triangulates on the cone
    fleet, the pair cones of rank up to 3, and the Renner cones of every
    Levi subset of the fleet, A2xT1, B4 and F4."""
    pair = [vinberg_cone(build_datum(name)).cone
            for name in ["A2", "B2", "G2", "A3", "B3", "C3"]]
    renner = []
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1", "B4", "F4"]:
        d = build_datum(name)
        renner += [renner_cone(build_parabolic(d, lv)) for lv in parse_levi(d, "all")]
    return hilbert_inputs(cone_fleet() + pair + renner)


def test_faces_by_inclusion_match_rank_oracle(recorded_inputs):
    shapes = [(len(rays[0]), len(rays)) for rays, _ in recorded_inputs]
    assert (6, 29) in shapes  # the B3 and C3 pair cones
    assert sum(count > rank for rank, count in shapes) >= 30  # not simplicial
    assert [m for m in (face_mismatch(*x) for x in recorded_inputs) if m] == []


def test_face_parity_catches_unfiltered_sub_faces(recorded_inputs, monkeypatch):
    # keeping every distinct set, not only the maximal ones, must be caught
    monkeypatch.setattr(cones, "_maximal", lambda sets: list(dict.fromkeys(sets)))

    def caught(rays, forms):
        try:
            return face_mismatch(rays, forms) is not None
        except ValueError:  # a sub-face of too low rank runs out of rays
            return True

    assert any(caught(*x) for x in recorded_inputs)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_faces_by_inclusion_match_rank_oracle_on_random_cones(data):
    inputs = hilbert_inputs([data.draw(random_cone("full"))])
    assert inputs
    for rays, forms in inputs:
        assert face_mismatch(rays, forms) is None


@settings(max_examples=100, deadline=None)
@given(wide_cone())
def test_faces_by_inclusion_match_rank_oracle_on_wide_cones(cone):
    # what ``_hilbert_pointed`` hands ``_hilbert_full`` for a pointed
    # full-dimensional cone, without the Hilbert basis that follows
    assert face_mismatch(sorted(cone.extreme_rays()), list(cone.halfspaces)) is None


# -- saturation ----------------------------------------------------------------------

def test_is_saturated_examples():
    sat = is_saturated(LatticeMonoid(2, [(1, 0), (0, 1)]), 4)
    assert sat.saturated and sat.level == "exact"
    assert sat.hilbert_basis == ((0, 1), (1, 0))

    gap = is_saturated(LatticeMonoid(2, [(2, 0), (0, 1), (1, 1)]), 4)
    assert not gap.saturated
    assert gap.level == "exact" and gap.counterexample == (1, 0)
    assert gap.hilbert_basis == ((0, 1), (1, 0))

    sat2 = is_saturated(LatticeMonoid(2, [(0, 1), (1, 1)]), 4)
    assert sat2.saturated and sat2.level == "exact"


def test_is_saturated_bounded_level_when_hilbert_unaffordable(monkeypatch):
    m = LatticeMonoid(2, [(1, 0), (0, 1)])
    monkeypatch.setattr(budgets, "DEFAULT_HILBERT_DIM", 1)
    cert = is_saturated(m, 3)
    assert cert.saturated and cert.level == "bounded:h3"
    assert cert.hilbert_basis is None
    # the window fallback still finds a gap
    gap = is_saturated(LatticeMonoid(2, [(2, 0), (0, 1), (1, 1)]), 4)
    assert not gap.saturated and gap.level == "bounded:h4"
    assert gap.counterexample == (1, 0)
    assert gap.hilbert_basis is None


@st.composite
def small_monoid(draw):
    """Dimension 1-3, 1-5 generators with entries in [-3, 3]; a drawn flag
    adds the negation of the first generator, so non-pointed monoids (a line
    in the cone) come up often."""
    dim = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=5))
    if draw(st.booleans()) and len(gens) < 5:
        gens.append(tuple(-x for x in gens[0]))
    return LatticeMonoid(dim, gens)


@given(small_monoid())
@settings(max_examples=150, deadline=None)
def test_is_saturated_agrees_with_the_window_first_route(m):
    new = is_saturated(m, 3)
    old = is_saturated_window_first(m, 3)
    assert new.saturated == old.saturated
    # the basis is affordable up to dimension 8, so the certificate is exact;
    # the old route reads exact too unless its window found a gap first
    assert new.level == "exact"
    assert old.level == "exact" or not old.saturated
    if old.level == "exact":
        assert new == old
    if not new.saturated:
        assert cone_member_by_vertex_search(m.generators, new.counterexample)
        assert not monoid_member_by_exhaustion(m.generators, new.counterexample, 6)


# -- enumeration -----------------------------------------------------------------------

def test_enumerate_examples():
    ray = RationalCone.from_generators(1, [(1,)])
    assert enumerate_points(ray, 2) == ((0,), (1,), (2,))
    wedge = RationalCone.from_generators(2, [(0, 1), (1, 1)])
    assert enumerate_points(wedge, 1) == ((0, 0), (0, 1), (1, 1))
    zero = RationalCone.from_generators(2, [])
    assert enumerate_points(zero, 5) == ((0, 0),)


def test_enumerate_matches_naive_scan():
    for c in cone_fleet():
        if c.ambient_dim > 3:
            continue
        naive = sorted(p for p in box(c.ambient_dim, 3) if c.contains(p))
        assert list(enumerate_points(c, 3)) == naive


# -- intersection ------------------------------------------------------------------------

def test_intersect_orthants():
    assert intersect([orthant(2), orthant(2)]) == orthant(2)


def test_intersect_weyl_translates_instance():
    # {a>=0, b>=0} meet {b>=0, a<=b} in coroot coordinates
    first = RationalCone.from_halfspaces(2, [(1, 0), (0, 1)])
    second = RationalCone.from_halfspaces(2, [(0, 1), (-1, 1)])
    meet = intersect([first, second])
    assert meet == RationalCone.from_generators(2, [(0, 1), (1, 1)])


def test_intersect_with_everything():
    full = dual_cone(RationalCone.from_generators(2, []))
    c = RationalCone.from_generators(2, [(0, 1), (1, 1)])
    assert intersect([c, full]) == c


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect([orthant(2), orthant(3)])


# -- canonical form ------------------------------------------------------------------------

def test_canonical_form_is_presentation_independent():
    a = RationalCone.from_generators(2, [(0, 1), (1, 1)])
    b = RationalCone.from_generators(2, [(0, 2), (1, 1), (1, 2)])
    assert a.canonical_generators() == b.canonical_generators()
    c = RationalCone.from_halfspaces(2, [(1, 0), (-1, 1)])
    assert c.canonical_generators() == a.canonical_generators()


def test_cone_takes_generators_or_halfspaces_but_not_both():
    # Halfspaces given beside generators would be ignored where the
    # canonical generators are read off the generators' own facets.
    with pytest.raises(ValueError):
        RationalCone(2, generators=[(1, 0)], halfspaces=[(0, 1)])
    with pytest.raises(ValueError):
        RationalCone(2)


ALL_CANONICAL_DATA = ("canonical_halfspaces", "canonical_generators",
                      "extreme_rays", "lineality_lattice")


@pytest.mark.parametrize("order", [ALL_CANONICAL_DATA, ALL_CANONICAL_DATA[::-1]])
@pytest.mark.parametrize("gens", [
    [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1)],            # pointed, a face of 3 rays
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0)],  # a line, zero dropped
    [],                                                        # the zero cone
    [(1, 0), (-1, 0), (0, 1), (0, -1)],                        # the whole plane
])
def test_generator_born_cone_runs_one_double_description(monkeypatch, order, gens):
    # The canonical halfspaces' double description also gives the extreme
    # rays and the lineality lattice, in whichever order they are asked for.
    calls = []
    original = cones._double_description

    def counted(halfspaces, dim):
        calls.append(dim)
        return original(halfspaces, dim)

    monkeypatch.setattr(cones, "_double_description", counted)
    c = RationalCone.from_generators(len(gens[0]) if gens else 3, gens)
    for name in order:
        getattr(c, name)()
    assert len(calls) == 1


@pytest.mark.parametrize("order", [ALL_CANONICAL_DATA, ALL_CANONICAL_DATA[::-1]])
@pytest.mark.parametrize("dim, halfspaces", [
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]),            # (1, 1, 0) redundant
    (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),           # an implicit equality
    (2, [(1, 0), (-1, 0), (0, 1), (0, -1)]),                      # the zero cone
    (3, []),                                                      # the whole space
    (3, [(1, 1, 0), (1, -1, 0)]),                                 # a line, not pointed
])
def test_halfspace_born_cone_runs_one_double_description(monkeypatch, order, dim, halfspaces):
    # The generators' double description also gives the canonical
    # halfspaces, read off the generators, in whichever order they are
    # asked for.
    calls = []
    original = cones._double_description

    def counted(halfspaces, dim):
        calls.append(dim)
        return original(halfspaces, dim)

    monkeypatch.setattr(cones, "_double_description", counted)
    c = RationalCone.from_halfspaces(dim, halfspaces)
    for name in order:
        getattr(c, name)()
    assert len(calls) == 1


def test_generator_invariant_pairs_nonnegative():
    for c in cone_fleet():
        for g in c.canonical_generators():
            for h in c.canonical_halfspaces():
                assert sum(a * b for a, b in zip(g, h)) >= 0


def test_double_description_randomized_roundtrip():
    # random generator sets: the canonical form must agree with membership,
    # with the vertex-search oracle, and survive dualizing twice
    rng = random.Random(97)
    for trial in range(40):
        dim = rng.choice([2, 2, 3, 3, 4])
        count = rng.randrange(1, 6)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(dim)) for _ in range(count)]
        c = RationalCone.from_generators(dim, gens)
        assert dual_cone(dual_cone(c)) == c
        for _ in range(30):
            v = tuple(rng.randrange(-5, 6) for _ in range(dim))
            expected = cone_member_by_vertex_search(gens, v)
            assert c.contains(v) == expected, (gens, v)
        rebuilt = RationalCone.from_generators(dim, c.canonical_generators())
        assert rebuilt == c
