import itertools

import pytest

from renner import (
    Coweight,
    LeviSubset,
    Weight,
    build_datum,
    dominance_leq,
    dominant_representative,
    levi,
    pairing,
    positive_coroots,
    weyl_group,
    weyl_orbit,
)
from renner.errors import BudgetExceededError
from renner.root_datum import (
    chamber_walker,
    integral_root_coordinates,
    is_dominant,
    simple_root_coordinates,
)
from renner.vinberg import vinberg_cone

from .oracles import (
    act,
    cartan_matrix_from_roots,
    coweight_is_dominant,
    euclidean_simple_roots,
    positive_root_count,
    weyl_group_by_products,
    weyl_order_by_orbit,
)

FLEET = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1"]


def fleet_datum(name):
    return build_datum(name)


def all_levis(datum):
    labels = datum.weight_basis_labels
    for size in range(len(labels) + 1):
        for nodes in itertools.combinations(labels, size):
            yield LeviSubset(frozenset(nodes))


# -- construction ------------------------------------------------------------

def test_build_a1():
    d = build_datum("A1")
    assert d.rank == 1
    assert d.cartan_matrix == ((2,),)


@pytest.mark.parametrize("name,family,n", [
    ("A2", "A", 2), ("A3", "A", 3), ("B2", "B", 2), ("B3", "B", 3),
    ("C3", "C", 3), ("D4", "D", 4), ("G2", "G", 2), ("F4", "F", 4),
    ("E6", "E", 6),
])
def test_cartan_matrices_match_euclidean_oracle(name, family, n):
    d = build_datum(name)
    oracle = cartan_matrix_from_roots(euclidean_simple_roots(family, n))
    assert [list(row) for row in d.cartan_matrix] == oracle


def test_g2_offdiagonal_entries():
    d = build_datum("G2")
    off = {d.cartan_matrix[0][1], d.cartan_matrix[1][0]}
    assert off == {-1, -3}


def test_product_and_central():
    d = build_datum("A1xA1")
    assert d.rank == 2
    assert d.cartan_matrix == ((2, 0), (0, 2))
    dt = build_datum("A2xT1")
    assert dt.rank == 2 and dt.central_rank == 1 and dt.dim == 3


def test_unknown_and_out_of_range_types():
    with pytest.raises(ValueError):
        build_datum("H3")
    with pytest.raises(ValueError):
        build_datum("F5")
    with pytest.raises(ValueError):
        build_datum("E9")
    with pytest.raises(ValueError):
        build_datum("")


@pytest.mark.parametrize("type_string", ["T0", "A1xT0", "T00xA2"])
def test_zero_rank_torus_factor_is_rejected(type_string):
    with pytest.raises(ValueError, match=r"^T requires rank >= 1$"):
        build_datum(type_string)


def test_explicit_matrix_construction():
    from renner.root_datum import RootDatum

    d = RootDatum(((2, -1), (-1, 2)), central_rank=1)
    assert d.rank == 2 and d.dim == 3
    assert d.simple_root(1).coords == (2, -1, 0)


def test_explicit_matrix_validation():
    from renner.root_datum import RootDatum

    with pytest.raises(ValueError):
        RootDatum(((2, -2), (-2, 2)))  # affine: zero principal minor
    with pytest.raises(ValueError):
        RootDatum(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        RootDatum(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        RootDatum(((1,),))  # diagonal must be 2
    with pytest.raises(ValueError):
        RootDatum(((2, 0), (0, 2)), central_rank=-1)


def test_pairing_reproduces_cartan_matrix():
    for name in FLEET:
        d = fleet_datum(name)
        for i in d.weight_basis_labels:
            for j in d.weight_basis_labels:
                assert pairing(d.simple_root(j), d.simple_coroot(i)) == d.cartan_matrix[i - 1][j - 1]
        for i in d.weight_basis_labels:
            assert pairing(d.simple_root(i), d.simple_coroot(i)) == 2


# -- positive coroots ---------------------------------------------------------

@pytest.mark.parametrize("name,family,n", [
    ("A1", "A", 1), ("A2", "A", 2), ("A3", "A", 3), ("B2", "B", 2),
    ("B3", "B", 3), ("C3", "C", 3), ("G2", "G", 2),
])
def test_positive_coroot_counts(name, family, n):
    d = build_datum(name)
    # the coroots of type X form the dual root system, same cardinality
    assert len(positive_coroots(d)) == positive_root_count(family, n)


def test_positive_coroots_a1_a2():
    d1 = build_datum("A1")
    assert [c.coords for c in positive_coroots(d1)] == [(1,)]
    d2 = build_datum("A2")
    assert {c.coords for c in positive_coroots(d2)} == {(1, 0), (0, 1), (1, 1)}


def test_positive_coroots_product():
    d = build_datum("A1xA1")
    assert {c.coords for c in positive_coroots(d)} == {(1, 0), (0, 1)}


# -- Weyl groups ---------------------------------------------------------------

@pytest.mark.parametrize("name,family,n", [
    ("A2", "A", 2), ("A3", "A", 3), ("B2", "B", 2), ("B3", "B", 3),
    ("C3", "C", 3), ("G2", "G", 2),
])
def test_weyl_group_orders_match_orbit_oracle(name, family, n):
    d = build_datum(name)
    order = len(weyl_group(d, d.full_levi()))
    assert order == weyl_order_by_orbit(euclidean_simple_roots(family, n))


@pytest.mark.parametrize("name,levis", [(name, "all") for name in FLEET + ["A2xT1", "B4"]]
                         + [("F4", "full"), ("D5", "full")])
def test_weyl_group_matches_matrix_product_oracle(name, levis):
    d = build_datum(name)
    for lv in all_levis(d) if levis == "all" else [d.full_levi()]:
        got = [(w.word, w.weight_matrix, w.coweight_matrix) for w in weyl_group(d, lv)]
        assert got == [(w.word, w.weight_matrix, w.coweight_matrix)
                       for w in weyl_group_by_products(d, lv)]


@pytest.mark.parametrize("cap", [1, 5, 23, 24])
def test_weyl_group_cap_matches_matrix_product_oracle(monkeypatch, cap):
    d = build_datum("A3")
    monkeypatch.setenv("RENNER_BUDGET", str(cap))
    outcomes = []
    for enumerate_group in (weyl_group, weyl_group_by_products):
        try:
            outcomes.append(len(enumerate_group(d, d.full_levi())))
        except BudgetExceededError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (24 if cap == 24 else f"Weyl enumeration exceeded cap {cap}")


def test_weyl_group_levi_cases():
    d = build_datum("A2")
    assert len(weyl_group(d, levi())) == 1
    assert len(weyl_group(d, d.full_levi())) == 6
    b2 = build_datum("B2")
    assert len(weyl_group(b2, b2.full_levi())) == 8


def test_weyl_cap(monkeypatch):
    d = build_datum("A3")
    monkeypatch.setenv("RENNER_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match="Weyl enumeration exceeded cap 5"):
        weyl_group(d, d.full_levi())
    # the orbit of w2 (the six weights of the exterior square) is over the cap
    with pytest.raises(BudgetExceededError, match="Weyl enumeration exceeded cap 5"):
        weyl_orbit(d, d.full_levi(), d.fundamental_weight(2))
    assert len(weyl_orbit(d, d.full_levi(), d.fundamental_weight(1))) == 4


@pytest.mark.parametrize("build", [positive_coroots, vinberg_cone],
                         ids=["positive_coroots", "vinberg_cone"])
def test_cached_builders_read_a_lowered_budget(monkeypatch, build):
    # A3 walks 12 coroots and a 6-element coweight orbit; the results are
    # cached before the budget drops to 3.
    d = build_datum("A3")
    build(d)
    monkeypatch.setenv("RENNER_BUDGET", "3")
    with pytest.raises(BudgetExceededError, match="Weyl enumeration exceeded cap 3"):
        build(d)
    monkeypatch.setenv("RENNER_BUDGET", "12")
    build(d)


def test_weyl_orbit_keeps_the_type():
    d = build_datum("A2")
    coroots = weyl_orbit(d, d.full_levi(), d.simple_coroot(1))
    assert {c.coords for c in coroots} == {
        (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert all(isinstance(c, Coweight) for c in coroots)
    # s2 fixes w1, so the Levi {2} orbit of w1 is a point
    assert weyl_orbit(d, levi(2), d.fundamental_weight(1)) == {d.fundamental_weight(1)}


def test_weyl_elements_fix_central_block():
    d = build_datum("A1xT1")
    w = Weight((3, 5))
    for s in weyl_group(d, d.full_levi()):
        assert act(s, w).coords[1] == 5


# -- action --------------------------------------------------------------------

def test_reflection_on_fundamental_weights_a2():
    d = build_datum("A2")
    ident, s1 = weyl_group(d, levi(1))
    assert (ident.word, s1.word) == ((), (1,))
    w1 = d.fundamental_weight(1)
    w2 = d.fundamental_weight(2)
    assert act(s1, w1) == w2 - w1
    assert act(s1, w2) == w2
    assert act(ident, w1) == w1


def test_action_preserves_pairing():
    for name in FLEET:
        d = fleet_datum(name)
        group = weyl_group(d, d.full_levi())
        samples = [(Weight((1,) * d.dim), Coweight((1,) * d.dim)),
                   (Weight(tuple(range(1, d.dim + 1))), Coweight(tuple(range(d.dim, 0, -1))))]
        for w in group:
            for wt, cwt in samples:
                assert pairing(act(w, wt), act(w, cwt)) == pairing(wt, cwt)


def test_action_permutes_signed_coroots():
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        d = fleet_datum(name)
        signed = {c.coords for c in positive_coroots(d)}
        signed |= {(-c).coords for c in positive_coroots(d)}
        for w in weyl_group(d, d.full_levi()):
            image = {act(w, Coweight(c)).coords for c in signed}
            assert image == signed


def test_act_dimension_mismatch():
    d = build_datum("A2")
    for s in weyl_group(d, levi(1)):
        with pytest.raises(ValueError):
            act(s, Weight((1,)))


# -- dominant representative ---------------------------------------------------

def test_dominant_representative_examples():
    d = build_datum("A2")
    lv = levi(1)
    v = d.fundamental_weight(2) - d.fundamental_weight(1)
    rep, w = dominant_representative(d, v, lv)
    assert rep == d.fundamental_weight(1)
    assert w.word == (1,)
    assert act(w, v) == rep

    already = Weight((2, 1))
    rep2, w2 = dominant_representative(d, already, lv)
    assert rep2 == already and w2.word == ()

    neg = Weight((-1, 0))
    rep3, w3 = dominant_representative(d, neg, levi())
    assert rep3 == neg and w3.word == ()


def test_dominant_representative_orbit_invariance():
    d = build_datum("B2")
    lv = d.full_levi()
    group = weyl_group(d, lv)
    v = Weight((2, -3))
    reps = {dominant_representative(d, act(w, v), lv)[0] for w in group}
    assert len(reps) == 1
    rep = reps.pop()
    assert is_dominant(rep, lv)
    again, _ = dominant_representative(d, rep, lv)
    assert again == rep


# -- dominance order -------------------------------------------------------------

def test_dominance_examples_a2():
    d = build_datum("A2")
    lv = levi(1)
    a = Weight((-1, 1))  # second minus first fundamental weight
    b = Weight((1, 0))
    assert dominance_leq(d, a, b, lv)  # difference is the first simple root
    assert dominance_leq(d, a, a, lv)
    assert not dominance_leq(d, Weight((0, -1)), b, lv)  # needs node 2


def test_dominance_coweights():
    d = build_datum("A2")
    lv = levi(1)
    a = Coweight((0, 0))
    b = Coweight((2, 0))
    assert dominance_leq(d, a, b, lv)
    assert not dominance_leq(d, a, Coweight((1, 1)), lv)
    assert dominance_leq(d, a, Coweight((1, 1)), d.full_levi())


def test_dominance_rejects_central_displacement():
    d = build_datum("A1xT1")
    assert not dominance_leq(d, Weight((0, 0)), Weight((2, 1)), d.full_levi())
    assert dominance_leq(d, Weight((0, 0)), Weight((2, 0)), d.full_levi())


def test_dominance_partial_order_on_sample():
    d = build_datum("B2")
    lv = d.full_levi()
    sample = [Weight(c) for c in itertools.product(range(-2, 3), repeat=2)]
    for a in sample:
        assert dominance_leq(d, a, a, lv)
    for a in sample:
        for b in sample:
            if a != b and dominance_leq(d, a, b, lv):
                assert not dominance_leq(d, b, a, lv)
    down = {a.coords: {b.coords for b in sample if dominance_leq(d, a, b, lv)}
            for a in sample}
    for a in sample:
        for b in sample:
            if b.coords in down[a.coords]:
                for c in sample:
                    if c.coords in down[b.coords]:
                        assert c.coords in down[a.coords]


def test_mixed_kind_comparison_rejected():
    d = build_datum("A2")
    with pytest.raises(TypeError):
        dominance_leq(d, Weight((0, 0)), Coweight((0, 0)), d.full_levi())


@pytest.mark.parametrize("kind", [Weight, Coweight])
def test_dominance_rejects_vectors_of_the_wrong_length(kind):
    d = build_datum("A2")
    with pytest.raises(ValueError, match="dimension mismatch"):
        dominance_leq(d, kind((0, 0, 0)), kind((1, 0, 1)), d.full_levi())


# -- root coordinates -----------------------------------------------------------

def test_simple_root_coordinates():
    d = build_datum("A2")
    coords = simple_root_coordinates(d, d.simple_root(1) + d.simple_root(2))
    assert coords == (1, 1)
    half = simple_root_coordinates(d, d.fundamental_weight(1))
    assert half[0].denominator == 3  # fundamental weights are fractional in roots


# Label 0 once read node 2 through a negative index, and label 3 indexed
# past the Cartan matrix.
@pytest.mark.parametrize("subset", [levi(0), levi(3), levi(1, 3)])
def test_root_solve_rejects_a_subset_outside_the_diagram(subset):
    d = build_datum("A2")
    with pytest.raises(ValueError, match="not in diagram"):
        integral_root_coordinates(d, (-1, 2), subset)


@pytest.mark.parametrize("subset", [levi(1), levi(1, 2)])
def test_root_solve_rejects_a_vector_of_the_wrong_length(subset):
    d = build_datum("A2")
    for bad in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            integral_root_coordinates(d, bad, subset)


def test_separately_built_data_share_one_walker_per_levi_subset():
    first, second = build_datum("B3"), build_datum("B3")
    assert first is not second
    for subset in all_levis(first):
        assert chamber_walker(first, subset) is chamber_walker(second, subset)


def test_coweight_dominance_helper():
    d = build_datum("A2")
    assert coweight_is_dominant(d, Coweight((1, 1)), d.full_levi())
    assert not coweight_is_dominant(d, Coweight((1, 0)), levi(2))


def _reflect(d, label, v):
    """The simple reflection at a node: v - v_j alpha_j on a weight,
    v - <alpha_j, v> alpha_j^vee on a coweight."""
    if isinstance(v, Weight):
        return v - d.simple_root(label).scale(v.coords[label - 1])
    return v - d.simple_coroot(label).scale(pairing(d.simple_root(label), v))


def test_weyl_elements_act_as_their_words():
    # on basis vectors, so both action matrices are checked entry by entry
    for name in ["G2", "B3"]:
        d = build_datum(name)
        basis = ([d.fundamental_weight(i) for i in d.weight_basis_labels]
                 + [d.simple_coroot(i) for i in d.weight_basis_labels])
        for w in weyl_group(d, d.full_levi()):
            for v in basis:
                expected = v
                for label in reversed(w.word):
                    expected = _reflect(d, label, expected)
                assert act(w, v) == expected
