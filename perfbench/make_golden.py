"""Record the golden outputs that every benchmark pass is checked against.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes perfbench/golden.json with, per workload,

* verify-fleet: a digest of the canonical CLI JSON of every job (reports
  carry no timings, so the text is byte-deterministic);
* orbit-window: for every instance, a hex bitmask over its query window,
  bit i set when the i-th window point (lexicographic order) is in the
  Levi-Weyl orbit of the dominant cone; both membership routes must agree;
* cone-kernels: digests of sorted Hilbert bases, DD canonical generators and
  halfspaces, saturation reports and dual-involution results.

Only outputs that pass their own checks are recorded.  Regenerate only when
an output is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    if name == "orbit-window":
        state = workload.setup([], "full")
        return {inst: workload.golden_entry(state, inst) for inst in state["instances"]}
    keys = workload.golden_keys()
    state = workload.setup(keys, "full")
    entries = {}
    for key in keys:
        raw = workload.execute(state, key)
        reason = workload.check(key, raw, {key: workload.canonical(raw)})
        if reason is not None:
            raise RuntimeError(f"{name} {key}: {reason}")
        entries[key] = workload.canonical(raw)
    return entries


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in names:
        golden[name] = record(name)
        print(f"{name}: {len(golden[name])} entries", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
