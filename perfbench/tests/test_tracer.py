"""Wrapper placement, span bookkeeping and metric names of the tracer."""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest
import renner
import renner.cli
import renner.cones
import renner.parabolic_monoid
import renner.repr_weights
import renner.root_datum
import renner.vinberg
from conftest import BENCH, ROOT
from run import END_TO_END_UNITS, REF_S, summarize, tail
from tracer import METRIC_NAME, PER_LAYER, Tracer
from worker import local_reference, run_pass

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_every_importing_namespace_is_patched_and_restored():
    original = renner.root_datum.dominant_representative
    holders = [renner, renner.root_datum, renner.parabolic_monoid,
               renner.repr_weights, renner.vinberg]
    assert all(h.dominant_representative is original for h in holders)
    gens = renner.cones.RationalCone.__dict__["canonical_generators"]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = renner.root_datum.dominant_representative
        assert wrapped is not original
        assert wrapped.__perfbench_original__ is original
        assert all(h.dominant_representative is wrapped for h in holders)
        assert renner.cones.RationalCone.__dict__["canonical_generators"] is not gens
        assert renner.cli.run.__perfbench_original__ is not None
        patched = set(tracer.patched())
        for name in ("renner.parabolic_monoid", "renner.repr_weights", "renner.vinberg"):
            assert (name, "dominant_representative") in patched
    finally:
        tracer.uninstall()
    assert all(h.dominant_representative is original for h in holders)
    assert renner.cones.RationalCone.__dict__["canonical_generators"] is gens
    assert tracer.patched() == []


def test_spans_give_busy_and_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        datum = renner.build_datum("A2")
        pd = renner.build_parabolic(datum, renner.levi(1))
        for coords in ((1, -2), (-1, 1), (0, 0)):
            renner.in_wm_dominant(pd, renner.Weight(coords))
    finally:
        tracer.uninstall()
    times = tracer.layer_times()
    member = times["parabolic_monoid.in_wm_dominant"]
    walk = times["root_datum.dominant_representative"]
    assert member["calls"] == 3 and walk["calls"] == 3
    assert 0 <= member["self_s"] <= member["busy_s"]
    assert walk["busy_s"] <= member["busy_s"]
    metrics = tracer.metrics()
    assert metrics["parabolic_monoid.in_wm_dominant.true_frac"] == 2 / 3
    assert metrics["root_datum.dominant_representative.steps"] >= 1
    assert set(metrics) == {n for n, _, _ in PER_LAYER} - {"trace.overhead_s"}


def test_metric_names_are_well_formed_and_declared():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.match(METRIC_NAME, name), name
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    percentile, value, beyond = tail(samples)
    assert (percentile, value, beyond) == (99.0, 990.0, 10)
    percentile, value, beyond = tail(samples[:300])
    assert percentile == 95.0 and beyond >= 10
    assert tail([1.0, 2.0, 3.0])[0] == 50.0


def fake_pass(latencies, traced=False, setup_s=0.5, rss=20.0, layers=None, ref_s=REF_S):
    return {"latencies": latencies, "setup_s": setup_s, "peak_rss_mb": rss,
            "traced": traced, "layers": layers or {}, "spans": 7,
            "ref_s": ref_s, "op_ref_s": [ref_s] * len(latencies)}


def test_summarize_takes_per_operation_medians():
    ops = [0.001 * (i + 1) for i in range(40)]
    noisy = [x * 3 for x in ops]  # one pass slowed throughout
    passes = [fake_pass(ops, setup_s=0.5), fake_pass(noisy, setup_s=0.9),
              fake_pass(ops, setup_s=0.4, rss=22.0)]
    probes = [{"setup_s": 0.45, "ref_s": REF_S}, {"setup_s": 0.6, "ref_s": REF_S}]
    metrics, extra = summarize(passes, probes, trace=False)
    assert list(metrics) == list(END_TO_END_UNITS)
    assert metrics["wall_s"] == pytest.approx(sum(ops))
    assert metrics["op_p50_ms"] == pytest.approx(statistics.median(ops) * 1000)
    percentile, value, beyond = tail(ops)
    assert metrics["op_tail_ms"] == pytest.approx(value * 1000)
    assert (extra["op_tail_percentile"], extra["op_tail_beyond"]) == (percentile, beyond)
    assert metrics["setup_s"] == 0.5 and extra["setup_samples"] == 5
    assert metrics["peak_rss_mb"] == 20.0 and extra["passes"] == 3


def test_summarize_scales_to_reference_speed():
    ops = [0.01, 0.02, 0.04]
    # The second pass ran on a host twice as slow, and the reference loop shows it.
    passes = [fake_pass(ops, setup_s=0.5), fake_pass([2 * x for x in ops], setup_s=1.0,
                                                     ref_s=2 * REF_S)]
    metrics, extra = summarize(passes, [], trace=False)
    assert metrics["wall_s"] == pytest.approx(sum(ops))
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert extra["raw_wall_s"] == pytest.approx(1.5 * sum(ops))


def test_summarize_traced_reports_layers_and_overhead():
    ops = [0.01, 0.02, 0.03]
    passes = [fake_pass(ops), fake_pass([x + 0.001 for x in ops], traced=True,
                                        layers={"cli.run.calls": 3})]
    metrics, extra = summarize(passes, [], trace=True)
    assert metrics["cli.run.calls"] == 3
    assert metrics["trace.overhead_s"] == pytest.approx(0.003)
    assert extra["traced_passes"] == 1


def test_each_operation_takes_the_nearest_reference_times():
    marks = [(float(t), 1.0) for t in range(5)] + [(float(t), 3.0) for t in range(10, 15)]
    assert local_reference([0.5, 12.0, 7.0, 20.0], marks) == [1.0, 3.0, 3.0, 3.0]
    assert local_reference([0.5], marks[:2]) == [1.0]


def test_traced_tiny_pass_reports_every_per_layer_metric():
    spec = {"workload": "verify-fleet", "seed": 2, "size": "tiny", "root": ROOT,
            "golden": os.path.join(BENCH, "golden.json")}
    plain = run_pass(dict(spec, trace=False))
    traced = run_pass(dict(spec, trace=True))
    assert plain["failed"] == 0 and traced["failed"] == 0
    passes = [dict(plain, traced=False, setup_s=0.1), dict(traced, traced=True, setup_s=0.1)]
    metrics, _ = summarize(passes, [], trace=True)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["cli.run.calls"] > 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone-kernels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
