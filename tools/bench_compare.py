#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and fail on regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json
        [--filter REGEX] [--threshold PCT] [--require-improvement PCT]

Benchmarks are matched by name; the per-iteration metric is
items_per_second when both sides report it (higher is better), real_time
otherwise (lower is better). A benchmark present on only one side is
reported but never fails the run — series come and go across PRs.

Exit status: 0 when no matched series regresses more than --threshold
percent (default 5), 1 otherwise. With --require-improvement, series
matching --filter must additionally IMPROVE by at least that much — the
mode the cache-layout acceptance gate uses against the committed
bench/BENCH_baseline.json.
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    """name -> benchmark dict, keeping only plain iteration entries."""
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        out[bench["name"]] = bench
    return out


def metric_of(base, cand):
    """(metric name, base value, candidate value, higher_is_better)."""
    if "items_per_second" in base and "items_per_second" in cand:
        return ("items_per_second", base["items_per_second"],
                cand["items_per_second"], True)
    return ("real_time", base["real_time"], cand["real_time"], False)


def percent_change(base_value, cand_value, higher_is_better):
    """Signed improvement in percent (positive = candidate is better)."""
    if base_value == 0:
        return 0.0
    change = (cand_value - base_value) / base_value * 100.0
    return change if higher_is_better else -change


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--filter",
        default=(r"^BM_ShardedDevice"
                 r"|^BM_Crc32|^BM_FrameStream"
                 r"|^BM_SpoolAppend|^BM_JournalReplay"),
        help="regex of benchmark names the gate applies to "
             "(default: the sharded-device and collection "
             "data-plane series)")
    parser.add_argument(
        "--ignore",
        default="",
        help="regex of benchmark names excluded from comparison "
             "entirely (empty by default: every series in the "
             "committed baseline is compared)")
    parser.add_argument(
        "--threshold", type=float, default=5.0,
        help="max tolerated regression in percent (default 5)")
    parser.add_argument(
        "--require-improvement", type=float, default=None, metavar="PCT",
        help="additionally require >= PCT%% improvement on every "
             "filtered series")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    candidate = load_benchmarks(args.candidate)
    gate = re.compile(args.filter)
    ignore = re.compile(args.ignore) if args.ignore else None

    failures = []
    rows = []
    for name in sorted(set(baseline) | set(candidate)):
        if ignore is not None and ignore.search(name):
            rows.append((name, "ignored (no baseline committed)", ""))
            continue
        if name not in baseline or name not in candidate:
            side = "baseline" if name in baseline else "candidate"
            rows.append((name, f"only in {side}", ""))
            continue
        metric, base_value, cand_value, higher = metric_of(
            baseline[name], candidate[name])
        change = percent_change(base_value, cand_value, higher)
        verdict = "ok"
        if gate.search(name):
            if change < -args.threshold:
                verdict = f"REGRESSION (> {args.threshold:g}%)"
                failures.append(name)
            elif (args.require_improvement is not None
                  and change < args.require_improvement):
                verdict = (f"BELOW TARGET "
                           f"(need >= {args.require_improvement:g}%)")
                failures.append(name)
        rows.append((name, f"{change:+.1f}% {metric}", verdict))

    width = max((len(name) for name, _, _ in rows), default=0)
    for name, delta, verdict in rows:
        line = f"  {name:<{width}}  {delta}"
        if verdict and verdict != "ok":
            line += f"  <- {verdict}"
        print(line)

    if failures:
        print(f"\nFAIL: {len(failures)} series outside the gate "
              f"({', '.join(failures)})", file=sys.stderr)
        return 1
    print("\nOK: all gated series within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
