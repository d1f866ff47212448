"""One pass of a workload, in a fresh interpreter.

Usage: python3 worker.py '<json spec>', where the spec names the workload,
seed, size, whether to trace, whether to stop once set up, the golden file
and, when tracing, where to write the spans.  The pass imports renner (so
every module-level cache starts cold), sets the workload up, reports the
moment it is ready, runs every operation of the plan once in a closed loop,
then checks the outputs against the golden file outside the timed region.
The pass also times a fixed reference loop, so that the runner can tell how
fast the host ran: REF_REPS times right after set-up and after the timed
body, and once between two operations about every REF_EVERY_S inside it
(outside every operation's own timing).  Each operation is given the median
of the REF_WINDOW reference times taken nearest to it.  The result is one
JSON line on stdout.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from time import perf_counter

REF_ITERS = 3000
REF_REPS = 5
REF_EVERY_S = 0.4
REF_WINDOW = 5


def reference_loop() -> None:
    """Fixed work of the kinds renner does: small-integer tuple arithmetic,
    Fractions, hashing into a dict and sorting.  It never changes with the
    package, so its time measures the speed of the host."""
    seen = {}
    acc = Fraction(0)
    v = (1, -2, 3, -1)
    for i in range(REF_ITERS):
        w = tuple((x * 7 + i) % 11 - 5 for x in v)
        seen[w] = seen.get(w, 0) + sum(a * b for a, b in zip(v, w))
        acc += Fraction(w[0], 1 + abs(w[1]))
        v = w
    sorted(seen.items())


def reference_mark() -> tuple[float, float]:
    """(mid time, duration) of one run of the reference loop."""
    t0 = perf_counter()
    reference_loop()
    t1 = perf_counter()
    return (t0 + t1) / 2, t1 - t0


def local_reference(mids: list[float], marks: list[tuple[float, float]]) -> list[float]:
    """For each operation, by the mid time of its run, the median duration
    of the REF_WINDOW reference marks nearest to it in time."""
    times = [t for t, _ in marks]
    width = min(REF_WINDOW, len(marks))
    out = []
    for mid in mids:
        lo = min(max(0, bisect.bisect(times, mid) - width // 2), len(marks) - width)
        out.append(statistics.median(d for _, d in marks[lo:lo + width]))
    return out


def check_outputs(workload, keys, outputs, golden: dict) -> list[tuple[int, str]]:
    """(operation index, reason) for every operation that failed.

    An operation fails when it raised (a budget error included), when its
    report did not pass, or when its output differs from the golden one."""
    failures = []
    for i, (key, (raw, error)) in enumerate(zip(keys, outputs)):
        reason = error if error is not None else workload.check(key, raw, golden)
        if reason is not None:
            failures.append((i, reason))
    return failures


def run_pass(spec: dict) -> dict:
    import renner

    source = os.path.realpath(os.path.dirname(renner.__file__))
    expected = os.path.realpath(os.path.join(spec["root"], "src", "renner"))
    if source != expected:
        raise SystemExit(f"renner imported from {source}, expected {expected}")

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    keys = workload.plan(spec["seed"], spec["size"])
    state = workload.setup(keys, spec["size"])
    ready = time.monotonic()
    marks = [reference_mark() for _ in range(REF_REPS)]
    ref_s = statistics.median(d for _, d in marks)
    if spec.get("setup_only"):
        return {"ready": ready, "ref_s": ref_s}

    latencies = []
    mids = []
    outputs = []
    next_mark = perf_counter() + REF_EVERY_S
    for i, key in enumerate(keys):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            raw, error = workload.execute(state, key), None
        except Exception as exc:  # counted as a failed operation
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        outputs.append((raw, error))
        if t1 >= next_mark:
            marks.append(reference_mark())
            next_mark = perf_counter() + REF_EVERY_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    marks += [reference_mark() for _ in range(REF_REPS)]

    result = {"ready": ready, "ref_s": ref_s, "peak_rss_mb": peak_rss_mb,
              "latencies": latencies, "op_ref_s": local_reference(mids, marks),
              "ops": len(keys)}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.start)
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])

    with open(spec["golden"], encoding="utf-8") as fh:
        golden = json.load(fh).get(workload.name, {})
    failures = check_outputs(workload, keys, outputs, golden)
    result["failed"] = len(failures)
    result["failures"] = [[keys[i], reason] for i, reason in failures[:10]]
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
