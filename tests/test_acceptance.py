"""Acceptance suite: every criterion at its stated tolerance (exact, zero
tolerance arithmetic), with one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from renner import (
    LeviSubset,
    Weight,
    build_datum,
    build_parabolic,
    check_cor_uinv,
    check_duality,
    check_intersection_lemma,
    check_levi_restriction,
    check_saturation,
    check_weight_hull,
    dual_cone,
    enumerate_points,
    hilbert_basis,
    in_wm_dominant,
    levi,
    monoid_contains,
    renner_cone,
    weyl_group,
)
from renner.cones import LatticeMonoid
from renner.parabolic_monoid import default_height_bound
from renner.vinberg import check_image

from .oracles import box, euclidean_simple_roots, weyl_order_by_orbit

FLEET = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1"]

TIME_LIMITS = {1: 120, 2: 120, 3: 300, 4: 120, 5: 300, 6: 60, 7: 120, 8: 120, 9: 60}


def fleet_instances():
    for name in FLEET:
        datum = build_datum(name)
        labels = datum.weight_basis_labels
        for size in range(len(labels) + 1):
            for nodes in itertools.combinations(labels, size):
                yield datum, LeviSubset(frozenset(nodes))


def _finish(number: int, label: str, started: float, failures: list) -> None:
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number} ({label}): {elapsed:.1f}s "
          f"(limit {TIME_LIMITS.get(number, '-')}s)")
    assert not failures, failures[:5]
    limit = TIME_LIMITS.get(number)
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_duality_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        pd = build_parabolic(datum, lv)
        report = check_duality(pd, default_height_bound(datum))
        if not report.passed:
            failures.append((datum.type_string, sorted(lv.nodes), report.counterexamples))
    _finish(1, "duality", started, failures)


def test_criterion_2_intersection_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        pd = build_parabolic(datum, lv)
        report = check_intersection_lemma(pd, default_height_bound(datum))
        if not report.passed:
            failures.append((datum.type_string, sorted(lv.nodes), report.counterexamples))
    _finish(2, "intersection", started, failures)


def test_criterion_3_saturation_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        pd = build_parabolic(datum, lv)
        report = check_saturation(pd)
        if not report.passed or report.level != "exact":
            failures.append((datum.type_string, sorted(lv.nodes),
                             report.level, report.counterexamples))
    _finish(3, "saturation", started, failures)


def test_criterion_4_weight_hull_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        pd = build_parabolic(datum, lv)
        report = check_weight_hull(pd, default_height_bound(datum))
        if not report.passed:
            failures.append((datum.type_string, sorted(lv.nodes), report.counterexamples))
    _finish(4, "weight hull", started, failures)


def test_criterion_5_vinberg_image_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        if datum.central_rank != 0:
            continue
        if len(weyl_group(datum, datum.full_levi())) > 48:
            continue
        pd = build_parabolic(datum, lv)
        report = check_image(pd, 3)
        if not report.passed:
            failures.append((datum.type_string, sorted(lv.nodes), report.counterexamples))
    _finish(5, "vinberg image", started, failures)


def test_criterion_6_levi_restriction_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        for i in datum.weight_basis_labels:
            report = check_levi_restriction(datum, lv, datum.fundamental_weight(i))
            if not report.passed:
                failures.append((datum.type_string, sorted(lv.nodes), i))
    rng = random.Random(2024)
    for _ in range(50):
        datum = build_datum(rng.choice(FLEET))
        labels = datum.weight_basis_labels
        nodes = frozenset(i for i in labels if rng.random() < 0.5)
        hw = Weight(tuple(rng.randrange(4) for _ in range(datum.rank)))
        report = check_levi_restriction(datum, LeviSubset(nodes), hw)
        if not report.passed:
            failures.append((datum.type_string, sorted(nodes), hw.coords))
    _finish(6, "levi restriction", started, failures)


def test_criterion_7_invariant_weights_suite():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        window = [Weight(part) for part in
                  itertools.product(range(3), repeat=datum.rank)]
        pd = build_parabolic(datum, lv)
        report = check_cor_uinv(pd, window)
        if not report.passed:
            failures.append((datum.type_string, sorted(lv.nodes), report.counterexamples))
    _finish(7, "invariant weights", started, failures)


def test_criterion_8_oracle_equivalence():
    started = time.monotonic()
    failures = []
    total_points = 0
    bounds = {1: 5000, 2: 60, 3: 12}
    for datum, lv in fleet_instances():
        bound = bounds[datum.rank]
        pd = build_parabolic(datum, lv)
        monoid = LatticeMonoid(datum.dim, [w.coords for w in pd.renner_generators])
        for point in box(datum.dim, bound):
            fast = in_wm_dominant(pd, Weight(point))
            brute = monoid_contains(monoid, point)
            total_points += 1
            if fast != brute:
                failures.append((datum.type_string, sorted(lv.nodes), point, fast, brute))
    print(f"  (criterion 8 compared {total_points} lattice points)")
    _finish(8, "orbit membership dual route", started, failures)


def test_criterion_9_infrastructure_invariants():
    started = time.monotonic()
    failures = []
    for datum, lv in fleet_instances():
        pd = build_parabolic(datum, lv)
        cones = [pd.pos_up.cone(), renner_cone(pd)]
        for c in cones:
            if dual_cone(dual_cone(c)) != c:
                failures.append(("involution", datum.type_string, sorted(lv.nodes)))
            naive = sorted(p for p in box(c.ambient_dim, 2) if c.contains(p))
            if list(enumerate_points(c, 2)) != naive:
                failures.append(("enumerate", datum.type_string, sorted(lv.nodes)))
        basis = hilbert_basis(renner_cone(pd))
        for h in basis:
            rest = LatticeMonoid(datum.dim, [b for b in basis if b != h])
            if monoid_contains(rest, h):
                failures.append(("hilbert-minimality", datum.type_string,
                                 sorted(lv.nodes), h))
    orders = {"A1": ("A", 1), "A2": ("A", 2), "A3": ("A", 3), "B2": ("B", 2),
              "B3": ("B", 3), "C3": ("C", 3), "G2": ("G", 2)}
    for name, (family, n) in orders.items():
        datum = build_datum(name)
        computed = len(weyl_group(datum, datum.full_levi()))
        oracle = weyl_order_by_orbit(euclidean_simple_roots(family, n))
        if computed != oracle:
            failures.append(("weyl-order", name, computed, oracle))
    product = build_datum("A1xA1")
    if len(weyl_group(product, product.full_levi())) != 4:
        failures.append(("weyl-order", "A1xA1"))
    _finish(9, "infrastructure invariants", started, failures)


def test_criterion_10_cli_determinism_and_corruption():
    started = time.monotonic()
    failures = []
    base = [sys.executable, "-m", "renner"]
    env = dict(os.environ)
    args = ["verify", "--type", "A2", "--levi", "all", "--lemma", "all"]
    first = subprocess.run(base + args, capture_output=True, text=True, env=env)
    second = subprocess.run(base + args, capture_output=True, text=True, env=env)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(("exit", first.returncode, second.returncode))
    if first.stdout != second.stdout or not first.stdout:
        failures.append(("nondeterministic output",))
    corrupted = subprocess.run(
        base + ["verify", "--type", "A2", "--levi", "1", "--lemma", "duality",
                "--inject-corruption"],
        capture_output=True, text=True, env=env)
    if corrupted.returncode != 1:
        failures.append(("corruption exit", corrupted.returncode))
    else:
        data = json.loads(corrupted.stdout)
        vectors = [ce for r in data["reports"] for ce in r["counterexamples"]
                   if "vector" in ce]
        if not vectors:
            failures.append(("no counterexample vector in corrupted run",))
    _finish(10, "cli determinism and corruption", started, failures)
