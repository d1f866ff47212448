import itertools
import random
import re

import pytest

from renner import LeviSubset, Weight, build_datum, build_parabolic, levi, vinberg
from renner.cones import enumerate_points
from renner.errors import InternalError
from renner.parabolic_monoid import in_wm_dominant
from renner.linalg import lattice_box, vec_sub
from renner.root_datum import chamber_walker, simple_root_coordinates, weyl_group
from renner.vinberg import (
    CpPoint,
    check_image,
    eval_at_cp,
    lattice_pairs,
    project_idempotent,
    vinberg_cone,
)

from . import oracles
from .oracles import (
    act,
    check_image_by_double_solve,
    lattice_pairs_by_double_solve,
    pr_off_levi,
)


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


def test_project_checks_cone_then_root_lattice_then_levi():
    vc = vinberg_cone(build_datum("A1"))
    unknown_node = CpPoint(levi(2))
    with pytest.raises(ValueError, match="^pair is outside the cone$"):
        project_idempotent(vc, unknown_node, (Weight((1,)), Weight((0,))))
    # (0, 1) is in the cone, but its difference is a fundamental weight
    with pytest.raises(ValueError, match="^pair difference is not in the root lattice$"):
        project_idempotent(vc, unknown_node, (Weight((0,)), Weight((1,))))
    with pytest.raises(ValueError, match=r"^Levi nodes \[2\] not in diagram$"):
        project_idempotent(vc, unknown_node, (Weight((0,)), Weight((2,))))


@pytest.mark.parametrize("type_string,bound", [
    ("A1", 3), ("A2", 2), ("B2", 2), ("G2", 2), ("A1xA1", 2), ("A3", 1),
])
def test_project_matches_halfspace_reference(type_string, bound):
    # The n functionals on second - first+ decide every pair of the box as
    # the pair cone's 2n-dimensional halfspaces do: the same image or the
    # same ValueError, on every Levi subset and on one with a node outside
    # the diagram.
    d = build_datum(type_string)
    vc = vinberg_cone(d)
    labels = d.weight_basis_labels
    subsets = [LeviSubset(frozenset(nodes)) for size in range(len(labels) + 1)
               for nodes in itertools.combinations(labels, size)]
    subsets.append(levi(max(labels) + 1))
    box = [Weight(coords) for coords in lattice_box(d.rank, bound)]
    pairs = list(itertools.product(box, repeat=2))
    pairs.append((Weight((0,) * (d.rank + 1)), box[0]))

    def outcome(project, cp, pair):
        try:
            return project(vc, cp, pair)
        except ValueError as exc:
            return str(exc)

    seen = set()
    for lv in subsets:
        cp = CpPoint(lv)
        for pair in pairs:
            result = outcome(project_idempotent, cp, pair)
            assert result == outcome(oracles.project_idempotent_by_halfspaces, cp, pair)
            seen.add(result if isinstance(result, str) else "image")
    # G2's root lattice is its weight lattice, so only the lattice message
    # may be missing.
    assert seen | {"pair difference is not in the root lattice"} == {
        "image", "pair dimension mismatch", "pair is outside the cone",
        "pair difference is not in the root lattice",
        f"Levi nodes [{max(labels) + 1}] not in diagram"}


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


@pytest.mark.parametrize("type_string,bound", [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 3), ("B3", 3), ("C3", 3),
    ("A4", 2), ("B4", 2), ("D4", 2),
])
def test_lattice_pairs_match_filtered_window(type_string, bound):
    # The walk of the pair lattice against the window of the whole cone,
    # filtered by solving each point's root coordinates: same pairs, same order.
    vc = vinberg_cone(build_datum(type_string))
    assert lattice_pairs(vc, bound) == lattice_pairs_by_double_solve(vc, bound)


@pytest.mark.parametrize("type_string,pairs,firsts", [
    ("A2", 170, 49), ("A3", 4165, 343),
])
def test_pair_window_solves_once_per_first_weight(type_string, pairs, firsts,
                                                  monkeypatch):
    # A fresh pair cone has no window yet; walking its h3 window solves the
    # root coordinates of f+ - f once per first weight f, f+ its dominant
    # weight, and solves no difference of a pair.
    solved = []
    solve = vinberg.integral_root_coordinates

    def counted(datum, coords, subset):
        solved.append(coords)
        return solve(datum, coords, subset)

    vinberg._vinberg_cone.cache_clear()
    d = build_datum(type_string)
    vc = vinberg_cone(d)
    monkeypatch.setattr(vinberg, "integral_root_coordinates", counted)
    window = lattice_pairs(vc, 3)
    assert len(window) == pairs
    walk = chamber_walker(d, d.full_levi())
    heads = list(dict.fromkeys(p[:d.rank] for p in window))
    assert len(heads) == firsts
    assert solved == [vec_sub(walk(f), f) for f in heads]


def test_pair_window_names_the_first_pair_of_an_unsolved_difference(monkeypatch):
    # A difference f+ - f that the solver rejects is an internal error,
    # reported at the first pair in walk order whose first weight carries
    # it, however many first weights share it.
    vinberg._vinberg_cone.cache_clear()
    d = build_datum("A2")
    window = lattice_pairs(vinberg_cone(d), 3)
    walk = chamber_walker(d, d.full_levi())

    def difference(p):
        return vec_sub(walk(p[:2]), p[:2])

    for middle in window[len(window) // 2:]:
        bad = difference(middle)
        carriers = [p for p in window if difference(p) == bad]
        if any(bad) and carriers[0][:2] != middle[:2]:
            break
    assert len({p[:2] for p in carriers}) > 1
    solve = vinberg.integral_root_coordinates

    def failing(datum, coords, subset):
        return None if coords == bad else solve(datum, coords, subset)

    vinberg._vinberg_cone.cache_clear()
    vc = vinberg_cone(d)
    monkeypatch.setattr(vinberg, "integral_root_coordinates", failing)
    message = f"lattice pair {carriers[0]} has no non-negative root coordinates"
    with pytest.raises(InternalError, match=re.escape(message)):
        lattice_pairs(vc, 3)


@pytest.mark.parametrize("type_string,bound", [
    (t, h) for t in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1") for h in range(4)
] + [(t, h) for t in ("A4", "B4", "D4") for h in range(3)] + [("D5", 2)])
def test_pair_window_blocks_match_flat_oracle(type_string, bound, monkeypatch):
    # The first weights' blocks hold the flat walk's pairs in dimension 2n,
    # and the pairs the double solve keeps, in the same order, with the
    # same support lift | mask per pair and the same minimal supports per
    # first weight, derived from its lift and the minimal masks of its
    # dominant weight's block; the only solves are one f+ - f per first
    # weight, in walk order.
    vinberg._vinberg_cone.cache_clear()
    d = build_datum(type_string)
    vc = vinberg_cone(d)
    pairs, first_supports, differences = oracles.pair_window_by_pairs(vc, bound)
    solved = []
    solve = vinberg.integral_root_coordinates

    def counted(datum, coords, subset):
        solved.append(coords)
        return solve(datum, coords, subset)

    monkeypatch.setattr(vinberg, "integral_root_coordinates", counted)
    window = vinberg._pair_window(vc, bound)
    flat = lattice_pairs(vc, bound)
    assert flat == tuple(p for p, _ in pairs)
    assert flat == lattice_pairs_by_double_solve(vc, bound)
    assert window.minimal == {top: vinberg._minimal(set(masks))
                              for top, (_, masks) in window.above.items()}
    blocks = {first: window.above[window.dominant[first]] for first in window.lifts}
    assert [(first, vinberg._minimal({lift | m for m in window.minimal[window.dominant[first]]}))
            for first, lift in window.lifts.items()] == list(first_supports.items())
    assert [lift | mask for first, lift in window.lifts.items() for mask in blocks[first][1]] \
        == [support for _, support in pairs]
    n = d.rank
    assert all(differences[vec_sub(p[n:], p[:n])] == support for p, support in pairs)
    walk = chamber_walker(d, d.full_levi())
    assert solved == [vec_sub(walk(first), first) for first in window.lifts]


def test_pair_window_walks_blocks_at_once_for_a_dominant_weight_outside_the_box(monkeypatch):
    # Every dominant weight of a box weight lies in the box, so its minimal
    # support is 0 with no walk.  A first weight added outside the box,
    # (-3, 0) on A2 at bound 1, has the dominant weight (0, 3) outside it:
    # the window then walks its blocks when it is built and reads the
    # minimal supports off them, and (0, 3), whose block is empty, has none
    # and gives (-3, 0) no lift.
    d = build_datum("A2")
    vc = vinberg_cone(d)
    plain = vinberg._pair_window(vc, 1)
    box = vinberg.lattice_box
    monkeypatch.setattr(vinberg, "lattice_box", lambda n, bound: [(-3, 0), *box(n, bound)])
    walks = []
    walk = vinberg._window_walk

    def counted(*args, **kwargs):
        walks.append(args[2])
        return walk(*args, **kwargs)

    monkeypatch.setattr(vinberg, "_window_walk", counted)
    # A cone of its own, so that the cached one keeps its plain windows.
    window = vinberg._pair_window(vinberg.VinbergCone(d, vc.cone, vc.functionals), 1)
    assert walks == [1]
    assert window.dominant[(-3, 0)] == (0, 3)
    assert window.minimal == {top: vinberg._minimal(set(masks))
                              for top, (_, masks) in window.above.items()}
    assert window.minimal[(0, 3)] == ()
    assert all(m == (0,) for top, m in window.minimal.items() if top != (0, 3))
    assert list(window.lifts) == [first for first, top in window.dominant.items()
                                  if window.above[top][0]]
    assert window.lifts == plain.lifts
    assert walks == [1]  # the blocks read above are the ones walked at build


def test_a4_pair_window_shares_blocks_between_first_weights():
    # The second weights of a first weight depend on its dominant weight
    # alone: the 625 first weights of the A4 h2 window have 81 dominant
    # weights, and each one's block of second weights is one tuple.
    vc = vinberg_cone(build_datum("A4"))
    window = vinberg._pair_window(vc, 2)
    blocks = [window.above[window.dominant[first]][0] for first in window.lifts]
    assert len(blocks) == 625
    assert len({window.dominant[first] for first in window.lifts}) == 81
    assert len({id(block) for block in blocks}) == 81
    assert sum(len(block) for block in blocks) == 9967


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


@pytest.mark.parametrize("type_string,top", [
    ("A1", 3), ("A1xA1", 3), ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 3),
    ("B3", 3), ("C3", 3), ("A4", 2), ("B4", 2), ("D4", 2),
])
def test_check_image_matches_double_solve_oracle(type_string, top, monkeypatch):
    d = build_datum(type_string)
    labels = d.weight_basis_labels
    pds = [build_parabolic(d, LeviSubset(frozenset(nodes)))
           for size in range(len(labels) + 1)
           for nodes in itertools.combinations(labels, size)]
    for pd in pds:
        for h in range(top + 1):
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
            for h in range(top):
                report = check_image(pd, h).to_json_dict()
                assert report == check_image_by_double_solve(pd, h).to_json_dict()
                kinds.update(c["kind"] for c in report["counterexamples"])
    assert kinds == {"image-escapes-orbit", "witness-pair-outside-cone"}


@pytest.mark.parametrize("type_string", ["A2", "B2"])
def test_check_image_asks_about_the_zero_image(type_string, monkeypatch):
    # An orbit test that rejects only the zero weight: every pair sent to 0
    # escapes, which the per-window table of first weights must still see.
    def all_but_zero(pd, v):
        return any(v.coords) and in_wm_dominant(pd, v)

    monkeypatch.setattr(vinberg, "in_wm_dominant", all_but_zero)
    monkeypatch.setattr(oracles, "in_wm_dominant", all_but_zero)
    d = build_datum(type_string)
    for nodes in [(), (1,), (2,), (1, 2)]:
        pd = build_parabolic(d, levi(*nodes))
        report = check_image(pd, 2).to_json_dict()
        assert report == check_image_by_double_solve(pd, 2).to_json_dict()
        escaped = report["counterexamples"]
        assert escaped and all(c["kind"] == "image-escapes-orbit" and c["image"] == [0, 0]
                               for c in escaped)
        if len(nodes) < 2:
            # Pairs whose difference leaves the Levi subset lose a non-zero
            # first weight.
            assert any(any(c["pair"][0]) for c in escaped)
