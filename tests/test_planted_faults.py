"""Every failing path of the checks that no healthy instance reaches: one
fault is planted per counterexample kind on a small instance, and the report
must fail with exactly that kind.  A check whose failing branch never runs
could pass whatever it is given; these tests show that each one can fail."""

import dataclasses

import pytest

from renner import (
    LeviSubset,
    build_datum,
    build_parabolic,
    check_cor_uinv,
    check_levi_restriction,
    check_saturation,
    check_weight_hull,
)
from renner import parabolic_monoid, repr_weights, vinberg
from renner.repr_weights import WeightSet
from renner.vinberg import check_image


def _a2(*nodes):
    datum = build_datum("A2")
    return datum, build_parabolic(datum, LeviSubset(frozenset(nodes)))


def _doubled_generators(monkeypatch):
    # Twice the Renner generators span the same cone but only the even
    # points of the monoid, so the monoid is not saturated.
    _, pd = _a2(1)
    doubled = tuple(w.scale(2) for w in pd.renner_generators)
    return check_saturation(dataclasses.replace(pd, renner_generators=doubled))


def _hilbert_basis_outside_orbit(monkeypatch):
    _, pd = _a2(1)
    monkeypatch.setattr(parabolic_monoid, "in_wm_dominant", lambda pd, v: False)
    return check_saturation(pd)


def _wedge_member_dropped(monkeypatch):
    # On A2 with Levi {1} the wedge monoid holds (1, 2) and (2, 2), both
    # Levi-dominant, and (1, 2) lies below (2, 2) by the coroot of node 1.
    _, pd = _a2(1)
    real = parabolic_monoid.monoid_contains
    monkeypatch.setattr(parabolic_monoid, "monoid_contains",
                        lambda m, v: v != (1, 2) and real(m, v))
    return check_weight_hull(pd, 2)


def _restriction_loses_highest_weight(monkeypatch):
    datum, pd = _a2(1)
    real = repr_weights.up_invariant_weights

    def filtered(ws, levi):
        kept = real(ws, levi)
        return WeightSet(kept.datum, kept.levi, kept.highest,
                         kept.elements - {kept.highest})

    monkeypatch.setattr(repr_weights, "up_invariant_weights", filtered)
    return check_levi_restriction(datum, pd.levi, datum.fundamental_weight(1))


def _invariant_weight_outside_orbit(monkeypatch):
    datum, pd = _a2(1)
    monkeypatch.setattr(repr_weights, "in_wm_dominant", lambda pd, v: False)
    return check_cor_uinv(pd, [datum.fundamental_weight(1)])


def _witness_pair_off_levi(monkeypatch):
    _, pd = _a2(1)
    monkeypatch.setattr(vinberg, "_supported_on_levi", lambda datum, coords, levi: 0)
    return check_image(pd, 1)


PLANTED = {
    "not-saturated": _doubled_generators,
    "hilbert-element-outside-orbit": _hilbert_basis_outside_orbit,
    "hull-violation": _wedge_member_dropped,
    "restriction-mismatch": _restriction_loses_highest_weight,
    "invariant-weight-outside-orbit": _invariant_weight_outside_orbit,
    "witness-pair-misses-vector": _witness_pair_off_levi,
}


@pytest.mark.parametrize("kind", list(PLANTED))
def test_planted_fault_fails_with_its_kind(kind, monkeypatch):
    report = PLANTED[kind](monkeypatch)
    assert not report.passed
    assert report.counterexamples
    assert {c["kind"] for c in report.counterexamples} == {kind}
