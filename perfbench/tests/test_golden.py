"""Golden-output checks: a wrong answer, a wrong golden entry, a failed
report and an exception all count as failed operations."""

import json
import os

import pytest

from conftest import BENCH, ROOT
from worker import check_outputs, run_pass
from workloads import WORKLOADS

with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def run_tiny(workload, golden_path, seed=3):
    return run_pass({"workload": workload, "seed": seed, "size": "tiny",
                     "trace": False, "root": ROOT, "golden": str(golden_path)})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_plan_is_covered_by_golden(name):
    workload = WORKLOADS[name]
    keys = workload.plan(5, "tiny")
    assert keys == workload.plan(5, "tiny")
    if name == "orbit-window":
        assert {k.rsplit("|", 1)[0] for k in keys} <= set(GOLDEN[name])
    else:
        assert set(keys) <= set(GOLDEN[name])


def test_verify_fleet_mismatch_and_failed_report():
    workload = WORKLOADS["verify-fleet"]
    key = "A2|1|duality|"
    raw = workload.execute(workload.setup([key], "tiny"), key)
    golden = GOLDEN["verify-fleet"]
    assert check_outputs(workload, [key], [(raw, None)], golden) == []

    tampered = dict(golden, **{key: "0" * 16})
    [(index, reason)] = check_outputs(workload, [key], [(raw, None)], tampered)
    assert index == 0 and reason.startswith("golden mismatch")

    status, text = raw
    data = json.loads(text)
    data["reports"][0]["pass"] = False
    failed = check_outputs(workload, [key], [((1, json.dumps(data)), None)], golden)
    assert [reason for _, reason in failed] == ["exit status 1"]
    failed = check_outputs(workload, [key], [((0, json.dumps(data)), None)], golden)
    assert failed[0][1].startswith("report FAIL")


def test_orbit_window_wrong_answer_counts_as_failed():
    workload = WORKLOADS["orbit-window"]
    keys = workload.plan(11, "tiny")[:20]
    state = workload.setup(keys, "tiny")
    outputs = [(workload.execute(state, k), None) for k in keys]
    golden = GOLDEN["orbit-window"]
    assert check_outputs(workload, keys, outputs, golden) == []

    (a, b), _ = outputs[0]
    flipped = [((not a, not b), None)] + outputs[1:]
    assert [i for i, _ in check_outputs(workload, keys, flipped, golden)] == [0]
    split = [((a, not b), None)] + outputs[1:]
    assert "monoid_contains" in check_outputs(workload, keys, split, golden)[0][1]


def test_exception_counts_as_failed():
    workload = WORKLOADS["cone-kernels"]
    failed = check_outputs(workload, ["hilbert-random|0"],
                           [(None, "BudgetExceededError: cap")], GOLDEN["cone-kernels"])
    assert failed == [(0, "BudgetExceededError: cap")]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_and_wrong_golden_entry_fails(name, tmp_path):
    good = run_tiny(name, os.path.join(BENCH, "golden.json"))
    assert good["failed"] == 0 and good["ops"] >= 1

    workload = WORKLOADS[name]
    golden = json.loads(json.dumps(GOLDEN))
    keys = workload.plan(3, "tiny")
    if name == "orbit-window":
        inst, point = keys[0].rsplit("|", 1)
        coords = tuple(int(x) for x in point.split(","))
        mask = int(golden[name][inst], 16) ^ (1 << workload.window_index(coords))
        golden[name][inst] = format(mask, "x")
    else:
        golden[name][keys[0]] = "f" * 16
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    bad = run_tiny(name, path)
    assert bad["failed"] >= 1
    assert bad["failures"][0][1].startswith("golden mismatch")
