import itertools
import random

import pytest

from renner import (
    Weight,
    WeightSet,
    build_datum,
    build_parabolic,
    check_cor_uinv,
    check_levi_restriction,
    dual_weyl_weights,
    levi,
    up_invariant_weights,
    weyl_group,
)
from renner import in_wm_dominant, reports, repr_weights
from renner.reports import MAX_COUNTEREXAMPLES
from renner.root_datum import is_dominant

from . import oracles
from .oracles import (
    act,
    check_cor_uinv_by_full_descent,
    saturated_hull_by_window,
    up_invariant_weights_by_dominance,
)


def dominant_weights(datum, coord_bound):
    for part in itertools.product(range(coord_bound + 1), repeat=datum.rank):
        yield Weight(part + (0,) * datum.central_rank)


# -- weight sets ------------------------------------------------------------------

def test_vector_representation_a2():
    d = build_datum("A2")
    ws = dual_weyl_weights(d, d.full_levi(), Weight((1, 0)))
    assert {v.coords for v in ws.elements} == {(1, 0), (-1, 1), (0, -1)}


def test_zero_weight_module():
    d = build_datum("B2")
    ws = dual_weyl_weights(d, d.full_levi(), Weight((0, 0)))
    assert {v.coords for v in ws.elements} == {(0, 0)}


def test_a1_even_string():
    d = build_datum("A1")
    ws = dual_weyl_weights(d, d.full_levi(), Weight((2,)))
    assert {v.coords for v in ws.elements} == {(2,), (0,), (-2,)}


def test_rejects_non_dominant_highest_weight():
    d = build_datum("A2")
    with pytest.raises(ValueError):
        dual_weyl_weights(d, d.full_levi(), Weight((-1, 0)))


def test_bfs_agrees_with_window_filter():
    for name in ["A2", "B2", "G2", "A1xA1"]:
        d = build_datum(name)
        levis = [levi(), levi(1), levi(2), d.full_levi()]
        for lv in levis:
            for hw in dominant_weights(d, 2):
                bfs = dual_weyl_weights(d, lv, hw).elements
                window = saturated_hull_by_window(d, lv, hw)
                assert bfs == window, (name, lv, hw)


def test_weight_set_is_weyl_stable():
    d = build_datum("B2")
    hw = Weight((1, 2))
    ws = dual_weyl_weights(d, d.full_levi(), hw)
    for w in weyl_group(d, d.full_levi()):
        assert {act(w, v) for v in ws.elements} == set(ws.elements)


def test_monotone_in_highest_weight():
    d = build_datum("A2")
    lv = d.full_levi()
    small = dual_weyl_weights(d, lv, Weight((1, 1))).elements
    # (2, 2) = (1, 1) + one copy of each simple root: same root-lattice coset
    big = dual_weyl_weights(d, lv, Weight((2, 2))).elements
    assert small < big


def test_highest_weight_is_maximal():
    d = build_datum("G2")
    hw = Weight((1, 1))
    ws = dual_weyl_weights(d, d.full_levi(), hw)
    from renner import dominance_leq

    for v in ws.elements:
        assert dominance_leq(d, v, hw, d.full_levi())


# -- invariant filters ---------------------------------------------------------------

def test_up_invariant_examples():
    d = build_datum("A2")
    full = dual_weyl_weights(d, d.full_levi(), Weight((1, 0)))
    filtered = up_invariant_weights(full, levi(1))
    assert {v.coords for v in filtered.elements} == {(1, 0), (-1, 1)}

    everything = up_invariant_weights(full, d.full_levi())
    assert everything.elements == full.elements

    only_top = up_invariant_weights(full, levi())
    assert {v.coords for v in only_top.elements} == {(1, 0)}


def test_up_invariant_idempotent_and_smaller():
    d = build_datum("B2")
    for hw in dominant_weights(d, 2):
        full = dual_weyl_weights(d, d.full_levi(), hw)
        for lv in [levi(), levi(1), levi(2), d.full_levi()]:
            once = up_invariant_weights(full, lv)
            twice = up_invariant_weights(once, lv)
            assert once.elements == twice.elements
            assert len(once.elements) <= len(full.elements)
            if lv == d.full_levi():
                assert len(once.elements) == len(full.elements)


FILTER_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1",
                "B4", "C4", "D4", "F4"]


def _every_levi(datum):
    labels = datum.weight_basis_labels
    return [levi(*nodes) for size in range(len(labels) + 1)
            for nodes in itertools.combinations(labels, size)]


@pytest.mark.parametrize("type_string", FILTER_TYPES)
def test_up_invariant_weights_match_dominance_filter(type_string):
    # The recorded supports keep the same weights as a root solve per
    # weight: every fundamental weight, and on dimension <= 3 every
    # dominant weight in [0,2]^dim, on every Levi subset.
    d = build_datum(type_string)
    highest = list(map(d.fundamental_weight, d.weight_basis_labels))
    if d.dim <= 3:
        highest += [Weight(c) for c in itertools.product(range(3), repeat=d.dim)]
    for hw in highest:
        full = dual_weyl_weights(d, d.full_levi(), hw)
        for lv in _every_levi(d):
            filtered = up_invariant_weights(full, lv)
            assert filtered == up_invariant_weights_by_dominance(full, lv)
            assert filtered.supports.keys() == filtered.elements


def test_up_invariant_weights_need_supports():
    d = build_datum("A2")
    full = dual_weyl_weights(d, d.full_levi(), Weight((1, 0)))
    bare = WeightSet(d, full.levi, full.highest, full.elements)
    with pytest.raises(ValueError, match="no supports"):
        up_invariant_weights(bare, levi(1))


# -- restriction and invariants checks --------------------------------------------------

def test_levi_restriction_a2_example():
    d = build_datum("A2")
    report = check_levi_restriction(d, levi(1), Weight((1, 0)))
    assert report.passed


def test_levi_restriction_zero_weight():
    d = build_datum("A2")
    assert check_levi_restriction(d, levi(2), Weight((0, 0))).passed


def test_levi_restriction_b2_fundamentals_all_levis():
    d = build_datum("B2")
    for lv in [levi(), levi(1), levi(2), d.full_levi()]:
        for i in d.weight_basis_labels:
            report = check_levi_restriction(d, lv, d.fundamental_weight(i))
            assert report.passed, (lv, i, report.counterexamples)


def test_levi_restriction_random_dominant():
    rng = random.Random(5)
    d = build_datum("G2")
    for _ in range(20):
        hw = Weight((rng.randrange(4), rng.randrange(4)))
        lv = random.Random(rng.random()).choice(
            [levi(), levi(1), levi(2), d.full_levi()])
        assert check_levi_restriction(d, lv, hw).passed


def test_levi_restriction_one_report_over_many_weights(monkeypatch):
    d = build_datum("A2")
    with pytest.raises(ValueError):
        check_levi_restriction(d, levi(1))
    weights = [Weight((a, b)) for a in range(4) for b in range(3)]
    assert check_levi_restriction(d, levi(1), *weights).passed
    # An empty filter side makes every weight a counterexample: the single
    # report fails and keeps the first MAX_COUNTEREXAMPLES of them.
    monkeypatch.setattr(repr_weights, "up_invariant_weights",
                        lambda ws, lv: WeightSet(ws.datum, lv, ws.highest, frozenset()))
    report = check_levi_restriction(d, levi(1), *weights)
    assert not report.passed
    assert [ce["highest"] for ce in report.counterexamples] == [
        list(w.coords) for w in weights[:MAX_COUNTEREXAMPLES]]


def test_cor_uinv_a2():
    d = build_datum("A2")
    window = list(dominant_weights(d, 2))
    report = check_cor_uinv(build_parabolic(d, levi(1)), window)
    assert report.passed, report.counterexamples


def test_cor_uinv_full_levi_trivial():
    d = build_datum("B2")
    window = list(dominant_weights(d, 2))
    assert check_cor_uinv(build_parabolic(d, d.full_levi()), window).passed


def test_cor_uinv_borel_case():
    d = build_datum("A1")
    window = list(dominant_weights(d, 3))
    report = check_cor_uinv(build_parabolic(d, levi()), window)
    assert report.passed
    # with the empty Levi the invariant weights are exactly the highest ones
    for hw in window:
        full = dual_weyl_weights(d, d.full_levi(), hw)
        assert {v for v in up_invariant_weights(full, levi()).elements} == {hw}


def test_cor_uinv_reports_each_missing_orbit_weight_once(monkeypatch):
    # In A2 the weight (0,-1) of the orbit of w1 is fixed by a reflection,
    # so a check that walks the group, not the orbit, would report it twice.
    # The membership predicate drops it from the weight set.
    d = build_datum("A2")
    real = repr_weights._is_member
    dropped = Weight((0, -1))

    def drop_one(datum, lv, walk, hw, v):
        return v != dropped and real(datum, lv, walk, hw, v)

    monkeypatch.setattr(repr_weights, "_is_member", drop_one)
    report = check_cor_uinv(build_parabolic(d, d.full_levi()), [Weight((1, 0))])
    assert report.counterexamples == [{
        "kind": "orbit-weight-not-realized",
        "highest": [1, 0],
        "vector": [0, -1],
    }]


UINV_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]


def uinv_cases():
    for name in UINV_TYPES:
        d = build_datum(name)
        window = list(dominant_weights(d, 2))
        labels = d.weight_basis_labels
        for size in range(len(labels) + 1):
            for nodes in itertools.combinations(labels, size):
                yield build_parabolic(d, levi(*nodes)), window


def test_cor_uinv_matches_full_descent_oracle():
    for pd, window in uinv_cases():
        assert (check_cor_uinv(pd, window).to_json_dict()
                == check_cor_uinv_by_full_descent(pd, window).to_json_dict())


def test_cor_uinv_fails_with_full_descent_oracle_under_planted_faults(monkeypatch):
    # Each fault depends on a weight's Levi-dominant representative only, as
    # the true test does.  The library tests one weight of each invariant
    # orbit and the oracle every invariant weight, so with the report cap
    # lifted the library's counterexamples are the oracle's Levi-dominant ones.
    monkeypatch.setattr(reports, "MAX_COUNTEREXAMPLES", 10 ** 9)
    faults = [
        lambda pd, v: not in_wm_dominant(pd, v),
        lambda pd, v: in_wm_dominant(pd, v) and sum(pd.walker(v.coords)) % 2 == 0,
        lambda pd, v: in_wm_dominant(pd, v) and pd.walker(v.coords)[0] != 1,
    ]
    failed = 0
    for fault in faults:
        monkeypatch.setattr(repr_weights, "in_wm_dominant", fault)
        monkeypatch.setattr(oracles, "in_wm_dominant", fault)
        for pd, window in uinv_cases():
            ours = check_cor_uinv(pd, window)
            theirs = check_cor_uinv_by_full_descent(pd, window)
            assert ours.passed == theirs.passed
            failed += not ours.passed
            expected = [c for c in theirs.counterexamples
                        if is_dominant(Weight(tuple(c["vector"])), pd.levi)]
            assert sorted(ours.counterexamples, key=by_weight) == sorted(expected, key=by_weight)
    assert failed


def by_weight(counterexample):
    return counterexample["highest"], counterexample["vector"]


def test_cor_uinv_rejects_empty_window():
    d = build_datum("A2")
    with pytest.raises(ValueError):
        check_cor_uinv(build_parabolic(d, levi(1)), [])


def test_cor_uinv_rejects_non_dominant_window():
    d = build_datum("A2")
    with pytest.raises(ValueError):
        check_cor_uinv(build_parabolic(d, levi(1)), [Weight((-1, 0))])
