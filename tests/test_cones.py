import itertools
import random

import pytest

from renner import budgets, build_datum, levi, positive_coroots
from renner.cones import (
    LatticeMonoid,
    RationalCone,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    intersect,
    is_saturated,
    monoid_contains,
)
from renner.errors import BudgetExceededError, SearchBudgetExceededError
from renner.parabolic_monoid import build_parabolic, renner_cone

from .oracles import box, cone_member_by_vertex_search, monoid_member_by_exhaustion


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


def test_hilbert_dimension_cap(monkeypatch):
    with pytest.raises(BudgetExceededError):
        hilbert_basis(orthant(9))
    monkeypatch.setattr(budgets, "DEFAULT_HILBERT_DIM", 9)
    assert hilbert_basis(orthant(9))


# -- saturation ----------------------------------------------------------------------

def test_is_saturated_examples():
    sat = is_saturated(LatticeMonoid(2, [(1, 0), (0, 1)]), 4)
    assert sat.saturated and sat.level == "exact"
    assert sat.hilbert_basis == ((0, 1), (1, 0))

    gap = is_saturated(LatticeMonoid(2, [(2, 0), (0, 1), (1, 1)]), 4)
    assert not gap.saturated
    assert gap.counterexample == (1, 0)
    assert gap.hilbert_basis is None  # the window check failed first

    sat2 = is_saturated(LatticeMonoid(2, [(0, 1), (1, 1)]), 4)
    assert sat2.saturated and sat2.level == "exact"


def test_is_saturated_bounded_level_when_hilbert_unaffordable(monkeypatch):
    m = LatticeMonoid(2, [(1, 0), (0, 1)])
    monkeypatch.setattr(budgets, "DEFAULT_HILBERT_DIM", 1)
    cert = is_saturated(m, 3)
    assert cert.saturated and cert.level == "bounded:h3"
    assert cert.hilbert_basis is None


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
