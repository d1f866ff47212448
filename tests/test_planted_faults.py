"""Every failing path of the checks that no healthy instance reaches: one
fault is planted per counterexample kind on a small instance, and the report
must fail with exactly that kind.  A check whose failing branch never runs
could pass whatever it is given; these tests show that each one can fail.

duality, posU and wthull walk their windows only when a fact of their cone
certificate fails, so a fault planted for them must break such a fact: each
fact below has its own fault, which must send its check down the window
route."""

import dataclasses

import pytest

from renner import (
    LatticeMonoid,
    LeviSubset,
    ParabolicData,
    Weight,
    build_datum,
    build_parabolic,
    check_cor_uinv,
    check_duality,
    check_intersection_lemma,
    check_levi_restriction,
    check_saturation,
    check_weight_hull,
)
from renner import cones, parabolic_monoid, repr_weights, vinberg
from renner.repr_weights import WeightSet
from renner.vinberg import check_image

from .oracles import (
    check_duality_by_window,
    check_intersection_lemma_by_window,
    check_weight_hull_by_window,
)


def _a2(*nodes):
    datum = build_datum("A2")
    return datum, build_parabolic(datum, LeviSubset(frozenset(nodes)))


def _fresh(pd):
    # A new instance, which has not yet tested the wedge saturation that
    # the shared one keeps once it is known.
    return dataclasses.replace(pd)


def _rejecting(monkeypatch, rejected):
    real = parabolic_monoid.monoid_contains
    monkeypatch.setattr(parabolic_monoid, "monoid_contains",
                        lambda m, v: v not in rejected and real(m, v))


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
    # The certificate tests the Hilbert basis (0, 1), (1, 1) of the wedge
    # cone, so (1, 1) is dropped too: the certificate fails, and the window
    # reports (1, 2) below (2, 2).  No member of the window lies above
    # (1, 1) in the Levi dominance order, so it reports nothing else.
    _, pd = _a2(1)
    _rejecting(monkeypatch, {(1, 2), (1, 1)})
    return check_weight_hull(_fresh(pd), 2)


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


# -- one fault per certificate fact ----------------------------------------------

def _renner_generators_not_levi_stable(monkeypatch):
    # (1, 1) = (1, 0) + (0, 1) adds nothing to the Renner cone of A2 {1},
    # but the reflection of node 1 maps it to (-1, 2), outside the set.
    # Nothing is wrong on the window, so the walk finds nothing.
    _, pd = _a2(1)
    case = dataclasses.replace(
        pd, renner_generators=pd.renner_generators + (Weight((1, 1)),))
    return check_duality, case, set()


def _renner_cone_not_dominant_on_the_levi_chamber(monkeypatch):
    # The wedge and Renner cones of A2 {1} on the empty Levi subset: they
    # are dual and W_L is trivial, but the Renner generator (-1, 1) is
    # negative at node 1, off the Levi subset, so the Renner cone meets the
    # Levi chamber outside the dominant cone.
    datum, pd = _a2(1)
    case = ParabolicData(datum, LeviSubset(frozenset()), pd.pos_up, pd.renner_generators)
    return check_duality, case, {"lattice-mismatch"}


def _dominant_cone_not_in_the_renner_cone(monkeypatch):
    # The ray of omega_2 on A2 {1} and its dual, the half-plane x_2 >= 0:
    # the cones are dual, node 1 fixes omega_2 and the generator is
    # non-negative off the Levi subset, but the dominant omega_1 lies
    # outside the ray: the halfspace -x_1 >= 0 of the Renner cone is
    # negative on it.
    datum, _ = _a2(1)
    case = ParabolicData(datum, LeviSubset(frozenset({1})),
                         LatticeMonoid(2, [(0, 1), (1, 0), (-1, 0)]), (Weight((0, 1)),))
    return check_duality, case, {"lattice-mismatch"}


def _renner_cone_misses_the_central_lines(monkeypatch):
    # The positive quadrant of A1xT1, with the empty Levi subset, in both
    # slots: the cones are dual and every generator is non-negative, but
    # the Renner cone holds only half of the central line, and the
    # dominant cone holds all of it.
    datum = build_datum("A1xT1")
    quadrant = [(1, 0), (0, 1)]
    case = ParabolicData(datum, LeviSubset(frozenset()), LatticeMonoid(2, quadrant),
                         tuple(Weight(g) for g in quadrant))
    return check_duality, case, {"lattice-mismatch"}


def _wedge_hilbert_element_dropped_from_posu(monkeypatch):
    _, pd = _a2(1)
    _rejecting(monkeypatch, {(1, 1)})
    return check_intersection_lemma, _fresh(pd), {"lattice-mismatch"}


def _wedge_misses_the_anti_dominant_slice(monkeypatch):
    # The forms (1, 0), (0, 1), (1, -1) cut out the cone of the saturated
    # wedge (1, 0), (1, 1), so the cone and lattice sides agree, but the
    # wedge meets the Levi-anti-dominant cone x_2 >= 2 x_1 at 0 only, where
    # the positive orthant does not: its halfspace (1, -1) is Levi-dominant,
    # so the walk keeps it, negative at node 2.
    datum, _ = _a2(1)
    rows = ((1, 0), (0, 1), (1, -1))
    case = ParabolicData(datum, LeviSubset(frozenset({1})),
                         LatticeMonoid(2, [(1, 0), (1, 1)]),
                         tuple(Weight(r) for r in rows))
    return check_intersection_lemma, case, {"anti-dominant-slice-mismatch"}


def _wedge_leaves_the_positive_orthant(monkeypatch):
    # The wedge (1, 0), (0, 1), (-1, 1) on A2 with the empty Levi subset,
    # whose dual the Renner slot holds, is saturated: its extreme rays
    # (1, 0) and (-1, 1) are a lattice basis.  Its halfspaces (0, 1) and
    # (1, 1) are non-negative, so it holds the positive orthant, but the
    # generator (-1, 1) leaves it, and every coweight is Levi-anti-dominant.
    datum, _ = _a2(1)
    case = ParabolicData(datum, LeviSubset(frozenset()),
                         LatticeMonoid(2, [(1, 0), (0, 1), (-1, 1)]),
                         (Weight((0, 1)), Weight((1, 1))))
    return check_intersection_lemma, case, {"anti-dominant-slice-mismatch"}


def _wedge_leaves_the_zero_central_block(monkeypatch):
    # The saturated half-plane x_1 >= 0 of A1xT1, with the empty Levi
    # subset, whose dual ray (1, 0) the Renner slot holds: its one
    # halfspace is non-negative on the rank coordinate, but its generators
    # (0, 1) and (0, -1) leave the zero central block.
    datum = build_datum("A1xT1")
    case = ParabolicData(datum, LeviSubset(frozenset()),
                         LatticeMonoid(2, [(1, 0), (0, 1), (0, -1)]), (Weight((1, 0)),))
    return check_intersection_lemma, case, {"anti-dominant-slice-mismatch"}


def _wedge_hilbert_element_dropped_from_wthull(monkeypatch):
    # No member of the window lies above (1, 1), so the walk finds nothing;
    # the planted hull-violation fault drops (1, 2) as well.
    _, pd = _a2(1)
    _rejecting(monkeypatch, {(1, 1)})
    return check_weight_hull, _fresh(pd), set()


def _wedge_not_cut_out_by_lowering_forms(monkeypatch):
    # The wedge (1, 0), (1, 1) on A2 {1} is x_1 >= x_2 >= 0: the form
    # (1, -1) grows along the coroot of node 1, and (1, 2), below (2, 2),
    # is Levi-dominant but off the wedge.
    datum, pd = _a2(1)
    case = ParabolicData(datum, pd.levi, LatticeMonoid(2, [(1, 0), (1, 1)]),
                         pd.renner_generators)
    return check_weight_hull, case, {"hull-violation"}


CERTIFICATE_FAULTS = {
    "duality-levi-stable": _renner_generators_not_levi_stable,
    "duality-levi-chamber": _renner_cone_not_dominant_on_the_levi_chamber,
    "duality-dominant-cone-inside": _dominant_cone_not_in_the_renner_cone,
    "duality-central-lines": _renner_cone_misses_the_central_lines,
    "posU-saturated": _wedge_hilbert_element_dropped_from_posu,
    "posU-anti-dominant-slice": _wedge_misses_the_anti_dominant_slice,
    "posU-wedge-in-orthant": _wedge_leaves_the_positive_orthant,
    "posU-zero-central-block": _wedge_leaves_the_zero_central_block,
    "wthull-saturated": _wedge_hilbert_element_dropped_from_wthull,
    "wthull-lowering-forms": _wedge_not_cut_out_by_lowering_forms,
}

WINDOW_ORACLES = {
    check_duality: check_duality_by_window,
    check_intersection_lemma: check_intersection_lemma_by_window,
    check_weight_hull: check_weight_hull_by_window,
}


@pytest.mark.parametrize("fact", list(CERTIFICATE_FAULTS))
def test_certificate_fault_walks_the_window(fact, monkeypatch):
    check, case, kinds = CERTIFICATE_FAULTS[fact](monkeypatch)
    walked = []
    walk = parabolic_monoid.enumerate_points

    def recorded(c, height_bound):
        walked.append(c)
        return walk(c, height_bound)

    monkeypatch.setattr(parabolic_monoid, "enumerate_points", recorded)
    report = check(case, 2)
    assert walked
    assert {c["kind"] for c in report.counterexamples} == kinds
    assert report.passed == (not kinds)
    if parabolic_monoid.monoid_contains is cones.monoid_contains:
        # No search is planted, so the window oracle sees the same fault.
        assert report.to_json_dict() == WINDOW_ORACLES[check](case, 2).to_json_dict()
