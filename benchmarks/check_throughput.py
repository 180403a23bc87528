#!/usr/bin/env python3
"""Gate sustained-throughput regressions against the committed baseline.

CI runs the C11 benchmark (which emits ``BENCH_throughput.json``) and then
this script::

    python benchmarks/check_throughput.py <current.json> [baseline.json]

The baseline defaults to the ``BENCH_throughput.json`` committed at the
repo root.  The build fails when any tracked sustained metric drops more
than ``TOLERANCE`` below the baseline:

- reactor bridged calls/sec at every measured concurrency,
- reactor streamed events/sec,
- the headline speedup at 64 concurrent exchanges.

The simulation is deterministic, so honest runs reproduce the baseline
exactly; the tolerance only absorbs intentional re-baselining noise (a
changed wire format legitimately shifts bytes/call and the sustained
rates a little).  When the numbers *improve* past the tolerance the
script says so — refresh the committed ``BENCH_throughput.json`` in the
same PR so the gate keeps teeth.
"""

from __future__ import annotations

import json
import os
import sys

TOLERANCE = 0.10


def _tracked(results: dict) -> dict[str, float]:
    metrics = {}
    for concurrency, data in sorted(results["calls"].items(), key=lambda kv: int(kv[0])):
        metrics[f"calls/sec reactor @{concurrency}"] = data["reactor"]["calls_per_sec"]
    metrics["events/sec reactor"] = results["events"]["reactor"]["events_per_sec"]
    metrics["speedup @64"] = results["speedup_at_64"]
    return metrics


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__)
        return 2
    current_path = argv[1]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_throughput.json",
        )
    )
    with open(current_path, encoding="utf-8") as handle:
        current = _tracked(json.load(handle))
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = _tracked(json.load(handle))

    regressions, improvements = [], []
    for name, base in baseline.items():
        now = current.get(name)
        if now is None:
            regressions.append(f"{name}: missing from {current_path}")
            continue
        ratio = now / base
        line = f"{name}: {base:.2f} -> {now:.2f} ({ratio:.2%} of baseline)"
        print(line)
        if ratio < 1.0 - TOLERANCE:
            regressions.append(line)
        elif ratio > 1.0 + TOLERANCE:
            improvements.append(line)

    if improvements:
        print(f"\nimproved >{TOLERANCE:.0%} past baseline — refresh "
              f"{os.path.basename(baseline_path)} to keep the gate tight:")
        for line in improvements:
            print(f"  {line}")
    if regressions:
        print(f"\nFAIL: sustained throughput regressed >{TOLERANCE:.0%}:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nOK: no tracked metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
