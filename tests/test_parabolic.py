import dataclasses
import itertools

import pytest

from renner import (
    Coweight,
    LeviSubset,
    Weight,
    build_datum,
    build_parabolic,
    cartan_closure_semigroup,
    check_duality,
    check_intersection_lemma,
    check_saturation,
    check_weight_hull,
    in_wm_dominant,
    levi,
    positive_coroots,
    renner_cone,
    weyl_group,
)
from renner import cones, parabolic_monoid
from renner.cli import corrupt_parabolic
from renner.cones import LatticeMonoid, enumerate_points, hilbert_basis, is_saturated
from renner.parabolic_monoid import (
    SATURATION_HEIGHT_BOUND,
    ParabolicData,
    default_height_bound,
)
from renner.root_datum import chamber_walker

from .oracles import (
    act,
    box,
    check_duality_by_dual_cone,
    check_duality_by_window,
    check_duality_pointwise,
    check_intersection_lemma_by_group,
    check_intersection_lemma_by_meet,
    check_intersection_lemma_by_window,
    check_weight_hull_by_all_pairs,
    check_weight_hull_by_window,
    duality_certified_by_cones,
    intersection_certified_by_cones,
    is_saturated_window_first,
    renner_cone_by_double_description,
    weight_hull_certified_by_cones,
    weyl_group_by_products,
)
from .test_properties import canonical_data

SMALL_FLEET = ["A1", "A2", "B2", "G2", "A1xA1"]
FLEET_AND_TORUS = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"]


def all_levis(datum):
    labels = datum.weight_basis_labels
    for size in range(len(labels) + 1):
        for nodes in itertools.combinations(labels, size):
            yield LeviSubset(frozenset(nodes))


# -- construction ---------------------------------------------------------------

def test_build_parabolic_a1():
    d = build_datum("A1")
    pd = build_parabolic(d, levi())
    assert pd.pos_up.generators == ((1,),)
    assert [w.coords for w in pd.renner_generators] == [(1,)]

    pd_full = build_parabolic(d, levi(1))
    assert pd_full.pos_up.generators == ()
    assert {w.coords for w in pd_full.renner_generators} == {(1,), (-1,)}


def test_build_parabolic_a2():
    d = build_datum("A2")
    pd = build_parabolic(d, levi(1))
    assert set(pd.pos_up.generators) == {(0, 1), (1, 1)}
    assert {w.coords for w in pd.renner_generators} == {(1, 0), (0, 1), (-1, 1)}


def test_build_parabolic_rejects_bad_nodes():
    d = build_datum("A2")
    with pytest.raises(ValueError):
        build_parabolic(d, levi(5))


def test_two_data_of_one_type_share_one_parabolic_per_levi_subset():
    first, second = build_datum("B3"), build_datum("B3")
    assert first is not second
    for lv in all_levis(first):
        pd = build_parabolic(first, lv)
        assert build_parabolic(second, lv) is pd
        assert build_parabolic(second, lv).renner_monoid is pd.renner_monoid
        assert build_parabolic(second, lv).pos_up.cone() is pd.pos_up.cone()
    assert build_parabolic(first, levi(1)) is not build_parabolic(first, levi(2))
    for datum, bad in ((second, levi(4)), (second, levi(0)), (second, levi(1, 4)),
                       (build_datum("T1"), levi(1))):
        for _ in range(2):
            with pytest.raises(ValueError, match="not in diagram"):
                build_parabolic(datum, bad)


def test_walker_checks_the_subset_once_and_the_dimension_on_every_call():
    d = build_datum("A2")
    with pytest.raises(ValueError, match="not in diagram"):
        chamber_walker(d, levi(3))
    walk = chamber_walker(d, levi(1))
    for bad in [(1,), (1, 0, 0), (1,)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            walk(bad)
    # s_1 sends (-1, 0) to (-1, 0) + alpha_1.
    assert walk((-1, 0)) == (1, -1)


def test_hand_built_parabolic_with_a_bad_levi_subset_raises_at_each_orbit_test():
    d = build_datum("A2")
    good = build_parabolic(d, levi(1))
    bad = ParabolicData(d, levi(3), good.pos_up, good.renner_generators)
    for _ in range(2):
        with pytest.raises(ValueError, match="not in diagram"):
            in_wm_dominant(bad, Weight((1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            in_wm_dominant(good, Weight((1, 0, 0)))
    assert in_wm_dominant(good, Weight((-1, 1)))


def test_central_generators_present():
    d = build_datum("A1xT1")
    pd = build_parabolic(d, levi())
    assert (0, 1) in {w.coords for w in pd.renner_generators}
    assert (0, -1) in {w.coords for w in pd.renner_generators}


# -- orbit membership --------------------------------------------------------------

def test_in_wm_dominant_examples():
    d = build_datum("A2")
    pd = build_parabolic(d, levi(1))
    assert in_wm_dominant(pd, Weight((-1, 1)))
    assert in_wm_dominant(pd, Weight((2, 3)))
    assert not in_wm_dominant(pd, Weight((0, -1)))


def test_in_wm_dominant_wm_stable():
    for name in SMALL_FLEET:
        d = build_datum(name)
        for lv in all_levis(d):
            pd = build_parabolic(d, lv)
            group = weyl_group(d, lv)
            for coords in box(d.dim, 2):
                v = Weight(coords)
                value = in_wm_dominant(pd, v)
                assert all(in_wm_dominant(pd, act(w, v)) == value for w in group)


def test_in_wm_dominant_ignores_central_block():
    d = build_datum("A1xT1")
    pd = build_parabolic(d, levi())
    assert in_wm_dominant(pd, Weight((1, -5)))
    assert not in_wm_dominant(pd, Weight((-1, 0)))


def test_orbit_monoid_closed_under_addition():
    d = build_datum("B2")
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        members = [Weight(c) for c in box(d.dim, 2) if in_wm_dominant(pd, Weight(c))]
        for a in members:
            for b in members:
                assert in_wm_dominant(pd, a + b)


# -- lemma checks ---------------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL_FLEET)
def test_duality_check_passes(name):
    d = build_datum(name)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        report = check_duality(pd, default_height_bound(d))
        assert report.passed, report.counterexamples


@pytest.mark.parametrize("name", FLEET_AND_TORUS)
def test_duality_matches_pointwise_oracle(name):
    # The window points of the cone the wedge generators cut out give the
    # report of pairing each point with every generator, also on the damaged
    # wedge monoid, whose counterexamples must come out in the same order.
    d = build_datum(name)
    bound = default_height_bound(d)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for case in (pd, corrupt_parabolic(pd)):
            report = check_duality(case, bound)
            assert (report.to_json_dict()
                    == check_duality_pointwise(case, bound).to_json_dict())
            assert report.passed == (case is pd)


def test_duality_a1_borel():
    d = build_datum("A1")
    report = check_duality(build_parabolic(d, levi()), 5)
    assert report.passed


def test_duality_h_representation_a2():
    d = build_datum("A2")
    pd = build_parabolic(d, levi(1))
    # halfspaces of the orbit cone pair against the wedge generators
    assert renner_cone(pd).canonical_halfspaces() == ((0, 1), (1, 1))


@pytest.mark.parametrize("name", SMALL_FLEET)
def test_intersection_check_passes(name):
    d = build_datum(name)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        report = check_intersection_lemma(pd, default_height_bound(d))
        assert report.passed, report.counterexamples


def test_intersection_trivial_group():
    d = build_datum("A2")
    pd = build_parabolic(d, levi())
    assert set(pd.pos_up.generators) == {c.coords for c in positive_coroots(d)}
    assert check_intersection_lemma(pd, 4).passed


def test_intersection_b2_long_root_levi():
    d = build_datum("B2")
    report = check_intersection_lemma(build_parabolic(d, levi(1)), 4)
    assert report.passed


def test_intersection_anti_dominant_slice_includes_the_walls():
    # Translate rows (1,0), (0,1), (1,-1), planted as the Renner generators,
    # cut out the cone of the wedge (1,0), (1,1): cone and lattice sides
    # agree, and the slice must report the positive coweights outside the
    # wedge, among them (1,2), which pairs to 0 with alpha_1 and so lies on
    # the wall of the slice.
    d = build_datum("A2")
    rows = ((1, 0), (0, 1), (1, -1))
    pd = ParabolicData(d, levi(1), LatticeMonoid(2, [(1, 0), (1, 1)]),
                       tuple(Weight(r) for r in rows))
    report = check_intersection_lemma(pd, 2)
    assert [(c["kind"], c["vector"]) for c in report.counterexamples] == [
        ("anti-dominant-slice-mismatch", v) for v in ([0, 1], [0, 2], [1, 2])]


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4", "C4", "D4", "F4"])
def test_group_coweight_rows_are_the_renner_generators(name):
    # Row i of w's coweight matrix is the weight w^-1 omega_i: over W_L the
    # rows, with both signs of the central unit vectors, are the W_L-orbits
    # of the fundamental weights that posU reads as its translate side.
    d = build_datum(name)
    central = [tuple(int(i == j) for i in range(d.dim)) for j in range(d.rank, d.dim)]
    for lv in all_levis(d):
        rows = {row for w in weyl_group_by_products(d, lv)
                for row in w.coweight_matrix[:d.rank]}
        rows |= set(central) | {tuple(-x for x in e) for e in central}
        assert rows == {w.coords for w in build_parabolic(d, lv).renner_generators}


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xT1"])
def test_intersection_matches_group_oracle(name):
    # Deciding both sides on the group's distinct coweight-matrix rows gives
    # the report of applying every group element, also on the damaged wedge
    # monoid, whose cone and lattice counterexamples must come out the same.
    d = build_datum(name)
    bound = default_height_bound(d)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for case in (pd, corrupt_parabolic(pd)):
            report = check_intersection_lemma(case, bound)
            assert (report.to_json_dict()
                    == check_intersection_lemma_by_group(case, bound).to_json_dict())
            assert report.passed == (case is pd)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_window_checks_search_the_wedge_monoid_only_inside_its_cone(monkeypatch, name):
    # The wedge monoid lies in its cone, so posU and wthull ask for a search
    # only at the window points of the wedge cone: the certificate at the
    # cone's Hilbert basis, the window route at the window points.  A search
    # runs where that basis is non-empty or the window is walked; on the
    # full Levi the wedge monoid has no generators and the basis is empty.
    d = build_datum(name)
    bound = default_height_bound(d)
    asked, walked = [], []
    search, walk = parabolic_monoid.monoid_contains, parabolic_monoid.enumerate_points

    def recorded(m, v):
        asked.append(v)
        return search(m, v)

    def recorded_walk(c, height_bound):
        walked.append(c)
        return walk(c, height_bound)

    monkeypatch.setattr(parabolic_monoid, "monoid_contains", recorded)
    monkeypatch.setattr(parabolic_monoid, "enumerate_points", recorded_walk)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        window = set(enumerate_points(pd.pos_up.cone(), bound))
        basis = hilbert_basis(pd.pos_up.cone())
        for check in (check_intersection_lemma, check_weight_hull):
            # A fresh instance, so that each check tests the wedge
            # saturation that the shared instance keeps once it is known.
            case = ParabolicData(d, lv, pd.pos_up, pd.renner_generators)
            asked.clear()
            walked.clear()
            assert check(case, bound).passed
            assert bool(asked) == bool(basis or walked)
            assert set(asked) <= window


WINDOW_CHECKS = [
    (check_duality, check_duality_by_window),
    (check_intersection_lemma, check_intersection_lemma_by_window),
    (check_weight_hull, check_weight_hull_by_window),
]


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4", "F4"])
def test_certified_checks_match_the_window_oracles(name):
    # A certificate that holds must stand for the window's empty list, and
    # one that fails must leave the window's list as it was, on the damaged
    # wedge monoid too.
    d = build_datum(name)
    bound = default_height_bound(d)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for case in (pd, corrupt_parabolic(pd)):
            for check, oracle in WINDOW_CHECKS:
                assert (check(case, bound).to_json_dict()
                        == oracle(case, bound).to_json_dict()), (check.__name__, sorted(lv.nodes))


CONE_SIDE_CHECKS = [
    (check_duality, check_duality_by_dual_cone),
    (check_intersection_lemma, check_intersection_lemma_by_meet),
]


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4", "F4"])
def test_cone_sides_match_the_rebuilt_cones(name):
    # duality and posU compare the wedge and Renner cones' own canonical
    # forms.  The rebuilt dual and intersection cones must pass and fail
    # with them, and list the same cone mismatch, on the damaged wedge
    # monoid too.
    d = build_datum(name)
    bound = default_height_bound(d)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for case in (pd, corrupt_parabolic(pd)):
            for check, oracle in CONE_SIDE_CHECKS:
                assert (check(case, bound).to_json_dict()
                        == oracle(case, bound).to_json_dict()), (check.__name__, sorted(lv.nodes))


CERTIFICATES = [
    (parabolic_monoid._duality_certified, duality_certified_by_cones),
    (parabolic_monoid._intersection_certified, intersection_certified_by_cones),
    (parabolic_monoid._weight_hull_certified, weight_hull_certified_by_cones),
]


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["A4", "B4", "C4", "D4", "F4"])
def test_sign_and_walk_certificates_hold_where_the_cone_comparisons_do(name):
    # The certificates decide by sign tests and chamber walks what the
    # former ones decided by comparing two cones built from halfspaces.
    # Wherever a former certificate holds on a healthy instance the new one
    # must hold too, or that subset would walk its window again.
    d = build_datum(name)
    held = 0
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for certified, by_cones in CERTIFICATES:
            if by_cones(pd):
                held += 1
                assert certified(pd), (certified.__name__, sorted(lv.nodes))
    assert held


class WindowWalked(Exception):
    pass


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4"])
def test_healthy_instances_walk_no_window(monkeypatch, name):
    # Every certificate holds on a healthy instance, so no check walks a
    # window; the damaged wedge monoid fails the cone side of duality and
    # posU, which then walk theirs to list the counterexamples, and it is
    # still closed downwards, which wthull's certificate decides.
    def no_window(cone, height_bound):
        raise WindowWalked

    monkeypatch.setattr(parabolic_monoid, "enumerate_points", no_window)
    d = build_datum(name)
    bound = default_height_bound(d)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        for check, _ in WINDOW_CHECKS:
            assert check(pd, bound).passed, (check.__name__, sorted(lv.nodes))
        for check in (check_duality, check_intersection_lemma):
            with pytest.raises(WindowWalked):
                check(corrupt_parabolic(pd), bound)
        assert check_weight_hull(corrupt_parabolic(pd), bound).passed, sorted(lv.nodes)


@pytest.mark.parametrize("name", SMALL_FLEET)
def test_weight_hull_check_passes(name):
    d = build_datum(name)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        report = check_weight_hull(pd, default_height_bound(d))
        assert report.passed, report.counterexamples


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A2xT1"])
def test_weight_hull_matches_all_pairs_oracle(name):
    # Doubling the wedge generators leaves gaps below the members, so the
    # bucketed check must report the same violations, in the same order, as
    # the comparison with every Levi-dominant point.
    d = build_datum(name)
    failed = 0
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        doubled = ParabolicData(
            d, lv, LatticeMonoid(d.dim, [tuple(2 * x for x in g) for g in pd.pos_up.generators]),
            pd.renner_generators)
        for case in (pd, doubled):
            report = check_weight_hull(case, 2)
            assert report.to_json_dict() == check_weight_hull_by_all_pairs(case, 2).to_json_dict()
            failed += not report.passed
    assert failed


@pytest.mark.parametrize("name", SMALL_FLEET)
def test_saturation_check_passes_exactly(name):
    d = build_datum(name)
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        report = check_saturation(pd)
        assert report.passed, report.counterexamples
        assert report.level == "exact"


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4", "F4"])
def test_saturation_certificate_matches_the_window_first_route(name):
    d = build_datum(name)
    for lv in all_levis(d):
        m = build_parabolic(d, lv).renner_monoid
        cert = is_saturated(m, SATURATION_HEIGHT_BOUND)
        assert cert.saturated, (name, sorted(lv.nodes))
        assert cert == is_saturated_window_first(m, SATURATION_HEIGHT_BOUND)


def test_saturation_walks_no_window_when_the_basis_is_affordable(monkeypatch):
    def no_window(cone, height_bound):
        raise AssertionError("window walked")

    monkeypatch.setattr(cones, "enumerate_points", no_window)
    d = build_datum("B2")
    for lv in all_levis(d):
        report = check_saturation(build_parabolic(d, lv))
        assert report.passed and report.level == "exact", sorted(lv.nodes)


def test_saturation_and_renner_cone_share_one_monoid(monkeypatch):
    pd = build_parabolic(build_datum("B2"), levi(1))
    seen = []

    def record(m, height_bound):
        seen.append(m)
        return is_saturated(m, height_bound)

    monkeypatch.setattr(parabolic_monoid, "is_saturated", record)
    assert check_saturation(pd).passed
    assert len(seen) == 1 and seen[0] is pd.renner_monoid
    assert renner_cone(pd) is seen[0].cone()


@pytest.mark.parametrize("name", FLEET_AND_TORUS + ["B4", "F4"])
def test_renner_cone_read_off_the_wedge_cone_matches_its_double_description(monkeypatch, name):
    # On a healthy instance the four chamber facts hold, so the Renner cone
    # is read off the wedge cone with no double description of its own, and
    # its canonical data is what its own double description finds.
    runs = []
    real = cones._double_description

    def counted(halfspaces, dim):
        runs.append(halfspaces)
        return real(halfspaces, dim)

    d = build_datum(name)
    for lv in all_levis(d):
        pd = dataclasses.replace(build_parabolic(d, lv))
        pd.pos_up.cone().canonical_halfspaces()
        monkeypatch.setattr(cones, "_double_description", counted)
        seeded = canonical_data(renner_cone(pd))
        monkeypatch.setattr(cones, "_double_description", real)
        assert runs == [], sorted(lv.nodes)
        assert seeded == canonical_data(renner_cone_by_double_description(pd)), sorted(lv.nodes)


def test_saturation_detects_gaps():
    # the index-two sublattice monoid is not saturated
    m = LatticeMonoid(1, [(2,), (-2,)])
    from renner.cones import is_saturated

    cert = is_saturated(m, 4)
    assert not cert.saturated


# -- closed Cartan semigroup --------------------------------------------------------------

def test_cartan_closure_semigroup_values():
    d1 = build_datum("A1")
    assert [w.coords for w in cartan_closure_semigroup(build_parabolic(d1, levi()))] == [(1,)]
    assert [w.coords for w in cartan_closure_semigroup(build_parabolic(d1, levi(1)))] == [(-1,), (1,)]
    d2 = build_datum("A2")
    basis = cartan_closure_semigroup(build_parabolic(d2, levi(1)))
    # minimal generating set: the second fundamental weight is the sum of the
    # other two orbit generators, so it drops out
    assert [w.coords for w in basis] == [(-1, 1), (1, 0)]


def test_cartan_closure_full_levi_is_full_lattice():
    d = build_datum("A2")
    basis = cartan_closure_semigroup(build_parabolic(d, levi(1, 2)))
    assert {w.coords for w in basis} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


# -- structural invariants -----------------------------------------------------------------

def test_monotone_in_levi():
    d = build_datum("A3")
    chains = [((), (1,), (1, 2), (1, 2, 3)), ((), (2,), (2, 3))]
    for chain in chains:
        for small, big in zip(chain, chain[1:]):
            pd_small = build_parabolic(d, levi(*small))
            pd_big = build_parabolic(d, levi(*big))
            for g in pd_big.pos_up.cone().canonical_generators():
                assert pd_small.pos_up.cone().contains(g)
            for g in renner_cone(pd_small).canonical_generators():
                assert renner_cone(pd_big).contains(g)


def test_extreme_cases():
    d = build_datum("B2")
    pd_empty = build_parabolic(d, levi())
    from renner.cones import dual_cone

    positive = pd_empty.pos_up.cone()
    assert renner_cone(pd_empty) == dual_cone(positive)
    pd_full = build_parabolic(d, d.full_levi())
    assert renner_cone(pd_full).canonical_generators() == (
        (-1, 0), (0, -1), (0, 1), (1, 0))


def test_pos_up_wm_stable():
    d = build_datum("B2")
    for lv in all_levis(d):
        pd = build_parabolic(d, lv)
        gens = set(pd.pos_up.generators)
        for w in weyl_group(d, lv):
            assert {act(w, Coweight(g)).coords for g in gens} == gens


@pytest.mark.parametrize("type_string,size", [("E6", 1278), ("E7", 17642)])
def test_e_type_full_levi_renner_generators(type_string, size):
    # |W(E7)| = 2903040 is over the Weyl cap; the orbits of the fundamental
    # weights are not.
    d = build_datum(type_string)
    assert len(build_parabolic(d, d.full_levi()).renner_generators) == size
