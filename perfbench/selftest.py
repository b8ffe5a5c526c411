"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py        # from the repository root

Runs every workload of BENCHMARK.json on a small input, once plainly and
once traced, and fails unless each run emits exactly the metrics that
BENCHMARK.json names, with their units, and every output matches the
recorded one.  It takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        failures.append(f"workloads {names} differ from {sorted(run.WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            result, record = run.measure(name, seed=1, seconds=0, trace=trace,
                                         small=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != wanted[trace]:
                failures.append(f"{tag}: metrics differ: {sorted(set(got) ^ set(wanted[trace]))}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                failures.append(f"{tag}: a metric is not a finite number")
            if not result["correct"]:
                failures.append(f"{tag}: outputs differ: {record['problems']}")
            print(f"{tag}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
