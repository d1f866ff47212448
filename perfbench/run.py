"""Benchmark runner for renner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-fleet --seed 1 --seconds 40 --trace 0

A run repeats passes of the workload for about ``--seconds``, one pass at a
time.  Each pass is a fresh interpreter (perfbench/worker.py), so renner's
module-level caches start cold, as they do for every invocation of the
``renner`` command.  Every pass runs the same operations, planned from
``--seed``, and checks each output against perfbench/golden.json.

The speed of a shared host drifts: on a 2-vCPU VM the same loop ran up to
1.5x slower for minutes at a time.  Each pass therefore also times a fixed
reference loop (worker.reference_loop) right after set-up and between
operations, and every end-to-end time is scaled to a host on which that loop
takes REF_S: a time t measured where the loop took r is reported as
t * REF_S / r.  The unscaled times are in the metadata line.  Every pass
runs the same plan, so each operation has one scaled latency per pass; the
runner takes, for each operation, the median over passes, so a burst of
noise that slows one pass moves no metric.

With ``--trace 0`` the runner reports the end-to-end metrics: set-up time
(median over the passes and over the set-up-only starts made before each of
them), pass time (the sum of the per-operation medians), median and tail of
the per-operation medians, and median peak RSS of a pass.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, unscaled, plus the tracing overhead:
traced minus untraced pass time, both taken the same way, which reads below
zero when the overhead is smaller than the noise between passes.  End-to-end
numbers always come from untraced passes.

Human-readable lines come first, then one line of run metadata, then the
result object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
PROBE_SECONDS = 0.5  # set-up-only starts before each untraced pass, at least one
# Untraced passes a run makes at least, so that the per-operation median of
# every run discards a burst of noise in one pass.
MIN_PASSES = 3
TOTAL_LIMIT_S = 170  # a run, however slow its passes, ends within 180 s
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Every time is scaled to a host on which worker.reference_loop takes this
# long; it took 0.013 to 0.021 s on a 2-vCPU x86-64 VM with CPython 3.11.
REF_S = 0.02

sys.path.insert(0, HERE)

from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    the ladder that leaves at least MIN_BEYOND samples beyond it; the
    median when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def source_digest(root: str) -> str:
    src = os.path.join(root, "src", "renner")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=root, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one pass; returns (monotonic time at spawn, worker result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(spec["root"], "src")
    # A fixed hash seed keeps set iteration order, and so the work done, the
    # same in every pass; the package's default caps apply.
    env["PYTHONHASHSEED"] = "0"
    env.pop("RENNER_BUDGET", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=spec["root"])
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker pass still running after {TOTAL_LIMIT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker pass failed with exit status {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """(passes, set-up probes).  A run is made of rounds until --seconds
    are used up: another round starts only when it is expected to end less
    than a quarter of a round past the run length.  In an untraced run a
    round first starts the workload up to ready and no further, for set-up
    time alone, for about PROBE_SECONDS, then makes one pass, and a run
    makes at least MIN_PASSES rounds.  A traced run alternates untraced and
    traced passes and makes at least one of each."""
    started = time.monotonic()
    deadline = started + TOTAL_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)

    def spec(traced: bool, setup_only: bool = False) -> dict:
        return {"workload": args.workload, "seed": args.seed, "size": "full",
                "trace": traced, "setup_only": setup_only, "root": ROOT,
                "golden": GOLDEN,
                "spans_out": os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl.gz")}

    probes: list[dict] = []
    passes: list[dict] = []
    while True:
        traced_done = any(p["traced"] for p in passes)
        untraced_done = any(not p["traced"] for p in passes)
        enough = traced_done if args.trace else len(passes) >= MIN_PASSES
        if enough:
            elapsed = time.monotonic() - started
            typical = statistics.median(p["round_s"] for p in passes)
            if elapsed + typical > args.seconds + typical / 4:
                break
        traced = bool(args.trace) and untraced_done and (
            not traced_done or not passes[-1]["traced"])
        round_start = time.monotonic()
        while not args.trace:
            spawned, result = run_worker(spec(False, setup_only=True), deadline)
            probes.append({"setup_s": result["ready"] - spawned, "ref_s": result["ref_s"]})
            if time.monotonic() - round_start >= PROBE_SECONDS:
                break
        spawned, result = run_worker(spec(traced), deadline)
        result["round_s"] = time.monotonic() - round_start
        result["setup_s"] = result["ready"] - spawned
        result["traced"] = traced
        passes.append(result)
    return passes, probes


def scale(p: dict) -> float:
    """Factor that scales the set-up time of a pass or probe to REF_S speed."""
    return REF_S / p["ref_s"]


def per_op(passes: list[dict], scaled: bool = True) -> list[float]:
    """Latency of each operation of the plan, scaled by the reference times
    taken nearest to it: its median over the passes."""
    rows = [[x * REF_S / r for x, r in zip(p["latencies"], p["op_ref_s"])]
            if scaled else p["latencies"] for p in passes]
    return [statistics.median(column) for column in zip(*rows)]


def summarize(passes: list[dict], probes: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metrics, extra) where extra holds sample counts, percentiles and
    the unscaled times."""
    plain = [p for p in passes if not p["traced"]]
    ops = per_op(plain)
    percentile, value, beyond = tail(ops)
    starts = probes + plain
    setups = [p["setup_s"] * scale(p) for p in starts]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ops),
        "op_p50_ms": statistics.median(ops) * 1000,
        "op_tail_ms": value * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    extra = {
        "passes": len(plain),
        "setup_samples": len(setups),
        "host_speed": statistics.median(scale(p) for p in starts),
        "raw_setup_s": statistics.median(p["setup_s"] for p in starts),
        "raw_wall_s": sum(per_op(plain, scaled=False)),
        "op_samples": len(ops),
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
        "end_to_end": end_to_end,
    }
    if not trace:
        return end_to_end, extra
    traced = [p for p in passes if p["traced"]]
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = sum(per_op(traced)) - end_to_end["wall_s"]
    extra["traced_passes"] = len(traced)
    extra["spans_per_pass"] = statistics.median(p["spans"] for p in traced)
    return layers, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, leave through SystemExit: subprocess.run then kills the
    # running worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "renner", "__init__.py")):
        print(f"error: no renner source under {ROOT}/src", file=sys.stderr)
        return 2

    passes, probes = run_passes(args)
    metrics, extra = summarize(passes, probes, bool(args.trace))
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for key, reason in p["failures"]:
            print(f"failed: {key}: {reason}", file=sys.stderr)

    workload = WORKLOADS[args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f" (p{extra['op_tail_percentile']:g}, {extra['op_tail_beyond']} of"
                    f" {extra['op_samples']} operations beyond, each the median of"
                    f" {extra['passes']} passes)")
        elif name == "op_p50_ms":
            note = f" ({extra['op_samples']} operations, each the median of {extra['passes']} passes)"
        elif name == "wall_s":
            note = f" (sum of per-operation medians over {extra['passes']} passes)"
        elif name == "setup_s":
            note = f" (median of {extra['setup_samples']} starts)"
        elif name == "peak_rss_mb":
            note = f" (median of {extra['passes']} passes)"
        print(f"{args.workload} {name} = {value:.6g} {units[name]}{note}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")

    meta = {
        "workload": args.workload,
        "why": workload.why,
        "left_out": workload.left_out,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "operations_per_pass": passes[0]["ops"],
        "fail_frac": failed / attempted,
        **extra,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
