#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-scale run of every workload, with
tracing off and on, must pass the correctness gate and print every metric
BENCHMARK.json names, with its unit.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"


def check(result, wanted, end_to_end):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correctness gate failed")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metrics differ: missing {sorted(set(wanted) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
        elif end_to_end and not value > 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    wanted = {
        0: {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        1: {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    }
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload["name"], "--seed", "7",
                    "--seconds", "0.2", "--trace", str(trace),
                    "--scale", SCALE]
            done = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=900)
            if done.returncode != 0:
                problems = [f"exit status {done.returncode}",
                            *done.stderr.strip().splitlines()[-10:]]
            else:
                lines = done.stdout.strip().splitlines()
                problems = check(json.loads(lines[-1]), wanted[trace],
                                 end_to_end=trace == 0)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload['name']} "
                  f"--trace {trace}" + "".join(f"\n    {p}" for p in problems),
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
