import itertools
import random

import pytest

from renner import LeviSubset, Weight, build_datum, build_parabolic, levi, vinberg
from renner.cones import enumerate_points
from renner.parabolic_monoid import in_wm_dominant
from renner.root_datum import simple_root_coordinates, weyl_group
from renner.vinberg import (
    CpPoint,
    check_image,
    eval_at_cp,
    lattice_pairs,
    pr_off_levi,
    project_idempotent,
    vinberg_cone,
)

from . import oracles
from .oracles import box, check_image_by_double_solve, cone_member_by_vertex_search


# -- cone construction --------------------------------------------------------

def test_a1_pair_cone_halfspaces():
    d = build_datum("A1")
    vc = vinberg_cone(d)
    # two Weyl elements give b - a >= 0 and b + a >= 0
    assert vc.cone.canonical_halfspaces() == ((-1, 1), (1, 1))
    assert vc.cone.contains((1, 1))     # diagonal dominant pair
    assert vc.cone.contains((0, 2))     # (0, dominant regular)
    assert not vc.cone.contains((1, 0))


def test_pair_cone_rejects_central_torus():
    d = build_datum("A1xT1")
    with pytest.raises(ValueError):
        vinberg_cone(d)


def test_diagonal_dominant_pairs_inside():
    for name in ["A2", "B2", "G2"]:
        d = build_datum(name)
        vc = vinberg_cone(d)
        for coords in itertools.product(range(3), repeat=d.rank):
            assert vc.cone.contains(coords + coords)


def test_pair_cone_membership_equals_root_coordinate_signs():
    # the halfspace test agrees with solving for simple-root coordinates
    rng = random.Random(23)
    d = build_datum("B2")
    vc = vinberg_cone(d)
    group = weyl_group(d, d.full_levi())
    from renner.root_datum import act

    for _ in range(1000):
        pair = tuple(rng.randrange(-3, 4) for _ in range(4))
        first, second = Weight(pair[:2]), Weight(pair[2:])
        direct = True
        for w in group:
            diff = second - act(w, first)
            coords = simple_root_coordinates(d, diff)
            if any(c < 0 for c in coords):
                direct = False
                break
        assert vc.cone.contains(pair) == direct


# -- idempotent evaluation -----------------------------------------------------

def test_eval_examples():
    d = build_datum("A2")
    cp = CpPoint(levi(1))
    zero = Weight((0, 0))
    assert eval_at_cp(d, zero, cp) == 1
    assert eval_at_cp(d, d.simple_root(1), cp) == 1
    assert eval_at_cp(d, d.simple_root(1) + d.simple_root(2), cp) == 0


def test_eval_rejects_outside_domain():
    d = build_datum("A2")
    cp = CpPoint(levi(1))
    with pytest.raises(ValueError):
        eval_at_cp(d, -d.simple_root(1), cp)
    with pytest.raises(ValueError):
        eval_at_cp(d, d.fundamental_weight(1), cp)  # fractional root coords


def test_eval_is_multiplicative():
    d = build_datum("B2")
    for nodes in [(), (1,), (2,), (1, 2)]:
        cp = CpPoint(levi(*nodes))
        monomials = []
        for a in range(3):
            for b in range(3):
                monomials.append(d.simple_root(1).scale(a) + d.simple_root(2).scale(b))
        for u in monomials:
            for v in monomials:
                assert eval_at_cp(d, u + v, cp) == eval_at_cp(d, u, cp) * eval_at_cp(d, v, cp)


# -- off-Levi coordinates ---------------------------------------------------------

def test_pr_off_levi_examples():
    d = build_datum("A2")
    lv = levi(1)
    assert pr_off_levi(d, d.simple_root(2), lv) == (1,)
    assert pr_off_levi(d, d.simple_root(1), lv) == (0,)
    assert pr_off_levi(d, d.simple_root(1) + d.simple_root(2).scale(2), lv) == (2,)


def test_pr_off_levi_nonnegative_on_cone_points():
    d = build_datum("A2")
    vc = vinberg_cone(d)
    lv = levi(2)
    n = d.rank
    for point in lattice_pairs(vc, 2):
        diff = Weight(tuple(point[n + i] - point[i] for i in range(n)))
        assert all(x >= 0 for x in pr_off_levi(d, diff, lv))


def test_pr_off_levi_rejects_fractional():
    d = build_datum("A2")
    with pytest.raises(ValueError):
        pr_off_levi(d, d.fundamental_weight(1), levi(1))


# -- projection ----------------------------------------------------------------------

def test_project_examples():
    d = build_datum("A1")
    vc = vinberg_cone(d)
    cp = CpPoint(levi())
    assert project_idempotent(vc, cp, (Weight((2,)), Weight((2,)))) == Weight((2,))
    assert project_idempotent(vc, cp, (Weight((-1,)), Weight((3,)))) == Weight((0,))
    assert project_idempotent(vc, cp, (Weight((0,)), Weight((4,)))) == Weight((0,))


def test_project_rejects_outside_cone():
    d = build_datum("A1")
    vc = vinberg_cone(d)
    with pytest.raises(ValueError):
        project_idempotent(vc, CpPoint(levi()), (Weight((1,)), Weight((0,))))


def test_projection_respects_addition_on_window():
    d = build_datum("A2")
    vc = vinberg_cone(d)
    cp = CpPoint(levi(1))
    pairs = lattice_pairs(vc, 1)
    n = d.rank

    def eps(p):
        diff = Weight(tuple(p[n + i] - p[i] for i in range(n)))
        return eval_at_cp(d, diff, cp)

    window = set(lattice_pairs(vc, 2))
    for p in pairs:
        for q in pairs:
            total = tuple(x + y for x, y in zip(p, q))
            if total not in window:
                continue
            assert eps(total) == eps(p) * eps(q)
            if eps(p) == 1 and eps(q) == 1:
                merged = project_idempotent(
                    vc, cp, (Weight(total[:n]), Weight(total[n:])))
                left = project_idempotent(vc, cp, (Weight(p[:n]), Weight(p[n:])))
                right = project_idempotent(vc, cp, (Weight(q[:n]), Weight(q[n:])))
                assert merged == left + right


def test_strict_lattice_points_have_integral_differences():
    d = build_datum("A1")
    vc = vinberg_cone(d)
    strict = lattice_pairs(vc, 2)
    loose = enumerate_points(vc.cone, 2)
    assert set(strict) < set(loose)
    assert all((p[1] - p[0]) % 2 == 0 for p in strict)
    assert any((p[1] - p[0]) % 2 == 1 for p in loose)


# -- image identity -------------------------------------------------------------------

def test_check_image_a1_window():
    d = build_datum("A1")
    lv = levi()
    pd = build_parabolic(d, lv)
    vc = vinberg_cone(d)
    report = check_image(pd, 4)
    assert report.passed, report.counterexamples
    images = set()
    for p in lattice_pairs(vc, 4):
        images.add(project_idempotent(vc, CpPoint(lv), (Weight(p[:1]), Weight(p[1:]))).coords)
    assert images == {(0,), (1,), (2,), (3,), (4,)}


def test_check_image_full_levi():
    d = build_datum("A2")
    lv = d.full_levi()
    pd = build_parabolic(d, lv)
    report = check_image(pd, 2)
    assert report.passed, report.counterexamples


@pytest.mark.parametrize("name,nodes", [
    ("A2", (1,)), ("A2", (2,)), ("B2", (1,)), ("B2", (2,)), ("G2", (1,)),
])
def test_check_image_levi_cases(name, nodes):
    d = build_datum(name)
    lv = levi(*nodes)
    pd = build_parabolic(d, lv)
    report = check_image(pd, 3)
    assert report.passed, report.counterexamples


@pytest.mark.parametrize("type_string", ["A2", "B2", "G2", "A3"])
def test_check_image_matches_double_solve_oracle(type_string, monkeypatch):
    d = build_datum(type_string)
    labels = d.weight_basis_labels
    pds = [build_parabolic(d, LeviSubset(frozenset(nodes)))
           for size in range(len(labels) + 1)
           for nodes in itertools.combinations(labels, size)]
    for pd in pds:
        for h in range(4):
            assert check_image(pd, h).to_json_dict() == \
                check_image_by_double_solve(pd, h).to_json_dict()
    # check_image reads only the datum and the Levi subset of its input, so
    # the corruption goes into the orbit test both routines call.  Negated,
    # every pair escapes; accepting everything, weights outside the orbit get
    # witness pairs outside the cone.
    kinds = set()
    for corrupted in (lambda pd, v: not in_wm_dominant(pd, v), lambda pd, v: True):
        monkeypatch.setattr(vinberg, "in_wm_dominant", corrupted)
        monkeypatch.setattr(oracles, "in_wm_dominant", corrupted)
        for pd in pds:
            for h in range(3):
                report = check_image(pd, h).to_json_dict()
                assert report == check_image_by_double_solve(pd, h).to_json_dict()
                kinds.update(c["kind"] for c in report["counterexamples"])
    assert kinds == {"image-escapes-orbit", "witness-pair-outside-cone"}
