#!/usr/bin/env python3
"""Same-host A/B of two source trees on one perfbench workload.

Runs `perfbench/run.py` of a base tree and of a candidate tree in
interleaved pairs on this host, alternating which side runs first, so
both see the same load drift. Each side first makes one unrecorded
warm-up run (it builds that tree and generates its inputs). Prints, per
metric, both medians, the change, the base runs' interquartile range
(the spread a change must beat), how many pairs the candidate won (a
tie is not a win) and whether a gain claimed on that metric holds: the
candidate wins at least 9 of every 10 pairs and its median is better
than the base median by more than the base IQR.

    python3 tools/perfbench_ab.py --base ../parent --change . \\
        --workload mag-5tuple --pairs 5 --seconds 10

Metric directions come from the candidate's BENCHMARK.json. A run that
fails ends the comparison with exit 1.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles


def run_side(tree, args):
    """One perfbench run of `tree`; its result's metric values."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench_ab: {' '.join(command)} exited "
                         f"{done.returncode}")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def directions(tree):
    """Metric name -> True when higher is better."""
    with open(os.path.join(tree, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return {entry["name"]: entry["better"] == "higher"
            for entry in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base source tree")
    parser.add_argument("--change", required=True,
                        help="candidate source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    higher_is_better = directions(trees["change"])

    for side in ("base", "change"):
        run_side(trees[side], args)
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_side(trees[side], args))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} interleaved pairs, "
          f"--seconds {args.seconds:g}, seed {args.seed}")
    print(f"  {'metric':28s} {'base':>12s} {'change':>12s} {'delta':>8s} "
          f"{'base IQR':>10s} {'claim':>5s}  wins")
    for name in runs["base"][0]:
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        higher = higher_is_better.get(name, True)
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        base_median, change_median = median(base), median(change)
        delta = (f"{100.0 * (change_median - base_median) / base_median:+.1f}%"
                 if base_median else "n/a")
        q1, _, q3 = quantiles(base, n=4) if len(base) > 1 else (0, 0, 0)
        gain = (change_median - base_median if higher
                else base_median - change_median)
        claim = "holds" if 10 * wins >= 9 * args.pairs and gain > q3 - q1 \
            else "no"
        print(f"  {name:28s} {base_median:12.6g} {change_median:12.6g} "
              f"{delta:>8s} {q3 - q1:10.4g} {claim:>5s}  {wins}/{args.pairs}"
              + (f" ({ties} tied)" if ties else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
