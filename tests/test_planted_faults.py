"""Every failing path of the checks that no healthy instance reaches: one
fault is planted per counterexample kind on a small instance, and the report
must fail with exactly that kind.  A check whose failing branch never runs
could pass whatever it is given; these tests show that each one can fail.

duality, posU and wthull walk their windows only when a fact of their cone
certificate fails, so a fault planted for them must break such a fact: each
fact below has its own fault, which must send its check down the window
route.  Likewise the Renner cone is read off the wedge cone only when four
chamber facts hold, and each of them has its own fault, which must make the
Renner cone run its own double description."""

import dataclasses
import json

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
from renner.cli import JobSpec, corrupt_parabolic, run
from renner.linalg import primitive
from renner.repr_weights import WeightSet
from renner.vinberg import check_image

from .oracles import (
    check_duality_by_window,
    check_intersection_lemma_by_window,
    check_weight_hull_by_window,
    with_renner_cone_by_double_description,
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


def test_cleared_support_bit_fails_levi_restriction(monkeypatch):
    # On A2 the full weight set of omega_1 records (0, -1) = omega_1 -
    # alpha_1 - alpha_2 with support {1, 2}.  With the bit of node 2
    # cleared, the filter for Levi {1} keeps (0, -1), which the Levi module
    # does not hold.  The check runs on a fresh full-Levi instance, so the
    # damaged set stays out of the shared table of full weight sets.
    datum, _ = _a2(1)
    full = datum.full_levi()
    fresh = _fresh(build_parabolic(datum, full))
    real = repr_weights.dual_weyl_weights

    def damaged(d, lv, hw):
        ws = real(d, lv, hw)
        if lv != full or hw != Weight((1, 0)):
            return ws
        supports = dict(ws.supports)
        supports[Weight((0, -1))] &= ~0b10
        return dataclasses.replace(ws, supports=supports)

    monkeypatch.setattr(repr_weights, "dual_weyl_weights", damaged)
    monkeypatch.setattr(repr_weights, "build_parabolic", lambda d, lv: fresh)
    status, text = run(JobSpec("A2", "1", "verify", lemma="levi-restriction"))
    assert status == 1
    [report] = json.loads(text)["reports"]
    assert report["counterexamples"] == [{
        "kind": "restriction-mismatch",
        "highest": [1, 0],
        "only_in_filter": [[0, -1]],
        "only_in_levi_module": [],
    }]


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


# -- one fault per fact that reads the Renner cone off the wedge cone ------------

def _parabolic(type_string, nodes, wedge, renner):
    datum = build_datum(type_string)
    return ParabolicData(datum, LeviSubset(frozenset(nodes)),
                         LatticeMonoid(datum.dim, wedge), tuple(Weight(r) for r in renner))


def _renner_generator_outside_the_wedge_dual():
    # The quadrant as the wedge cone on A2 with the empty Levi subset: the
    # Renner generator (-1, 1) pairs negatively with the wedge generator
    # (1, 0), and the Renner cone is larger than the quadrant.
    return _parabolic("A2", (), [(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 1)])


def _damaged_wedge_monoid():
    # The damage of --inject-corruption: the negated wedge generator pairs
    # negatively with a Renner generator.
    _, pd = _a2(1)
    return corrupt_parabolic(pd)


def _dominant_cone_generator_missing():
    # The quadrant as the wedge cone on A2 with the empty Levi subset, and
    # the ray of omega_2 as the Renner cone: omega_2 pairs non-negatively
    # with the wedge generators, the walk of each canonical halfspace of the
    # wedge cone is non-negative, and W_L is trivial, but the Renner
    # generators miss the unit vector (1, 0), and the ray is not the
    # quadrant.
    return _parabolic("A2", (), [(1, 0), (0, 1)], [(0, 1)])


def _dominant_cone_central_line_missing():
    # The ray of (1, 0) as the wedge cone on A1xT1 with the empty Levi
    # subset, whose dual is the half-plane x_1 >= 0: the Renner generators
    # (1, 0), (0, 1) lie in it and hold the unit vector of the rank
    # coordinate, but miss (0, -1), and span only the quadrant.
    return _parabolic("A1xT1", (), [(1, 0)], [(1, 0), (0, 1)])


def _renner_generators_not_stable_under_the_levi():
    # The wedge monoid of A2 {1} with the Renner generators (1, 0), (0, 1):
    # they pair non-negatively with the wedge generators and hold the
    # dominant cone, but the reflection of node 1 maps (1, 0) to (-1, 1),
    # outside the set, and the quadrant is smaller than the wedge's dual.
    datum, pd = _a2(1)
    return ParabolicData(datum, pd.levi, pd.pos_up, (Weight((0, 1)), Weight((1, 0))))


def _wedge_halfspace_walks_out_of_the_dominant_cone():
    # The wedge (1, 0), (1, 1) on A2 with the empty Levi subset: its dual
    # has the canonical generator (1, -1), which the trivial walk leaves
    # negative at node 2, and the quadrant that the Renner generators span
    # is smaller than that dual.
    return _parabolic("A2", (), [(1, 0), (1, 1)], [(1, 0), (0, 1)])


SEEDING_FAULTS = {
    "renner-in-wedge-dual": _renner_generator_outside_the_wedge_dual,
    "renner-in-wedge-dual-inject-corruption": _damaged_wedge_monoid,
    "dominant-cone-generators": _dominant_cone_generator_missing,
    "dominant-cone-central-lines": _dominant_cone_central_line_missing,
    "levi-stable": _renner_generators_not_stable_under_the_levi,
    "wedge-forms-walk-dominant": _wedge_halfspace_walks_out_of_the_dominant_cone,
}


@pytest.mark.parametrize("check", [check_duality, check_intersection_lemma])
@pytest.mark.parametrize("fact", list(SEEDING_FAULTS))
def test_seeding_fault_describes_the_renner_cone(fact, check, monkeypatch):
    # When a fact fails, the Renner cone runs its own double description,
    # of the Renner generators, and the check reports what it reports on
    # that cone: each case's Renner cone differs from the wedge cone's dual,
    # so both checks list the cone mismatch.
    case = SEEDING_FAULTS[fact]()
    runs = []
    real = cones._double_description

    def counted(halfspaces, dim):
        runs.append(halfspaces)
        return real(halfspaces, dim)

    monkeypatch.setattr(cones, "_double_description", counted)
    report = check(case, 2)
    monkeypatch.setattr(cones, "_double_description", real)
    assert sorted({primitive(w.coords) for w in case.renner_generators}) in runs
    assert not report.passed
    assert "cone-mismatch" in {c["kind"] for c in report.counterexamples}
    today = check(with_renner_cone_by_double_description(case), 2)
    assert report.to_json_dict() == today.to_json_dict()
