#!/usr/bin/env python3
"""Same-host CPU split of two ndtm builds' device -> collector chains.

Each chain is one `ndtm collect --devices 1` process plus one
`ndtm measure --connect` process replaying a perfbench workload's pcap
to it over loopback TCP, the chain perfbench times. The two builds run
in interleaved pairs, alternating which goes first, and each process's
user + system CPU comes from wait4. Prints, per build, the median
device and collector CPU and the change against the base build.

    python3 tools/chain_cpu.py --base ../parent/build/tools/ndtm \\
        --change build/tools/ndtm --workload cos-interval-churn --pairs 7

The pcap is written once with the change build's `ndtm synthesize`
into a temporary directory, removed at exit.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import WORKLOADS, measure_flags  # noqa: E402

TRACE_SEED = 1  # perfbench/run.py's default --seed


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def chain(ndtm, pcap, flags, work):
    """One chain of `ndtm`: (device CPU s, collector CPU s)."""
    port_file = os.path.join(work, "port")
    if os.path.exists(port_file):
        os.remove(port_file)
    quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    collect = subprocess.Popen(
        [ndtm, "collect", "--listen", "0", "--devices", "1",
         "--timeout-ms", "120000", "--port-file", port_file,
         "--export", os.path.join(work, "merged.bin")], **quiet)
    while not (os.path.exists(port_file) and os.path.getsize(port_file)):
        if collect.poll() is not None:
            sys.exit("chain_cpu: collect exited before listening")
        time.sleep(0.001)
    with open(port_file) as stream:
        port = stream.read().strip()
    measure = subprocess.Popen(
        [ndtm, "measure", "--in", pcap, *flags,
         "--connect", f"127.0.0.1:{port}"], **quiet)
    _, measure_status, measure_usage = os.wait4(measure.pid, 0)
    _, collect_status, collect_usage = os.wait4(collect.pid, 0)
    # Popen must not reap them again.
    measure.returncode = collect.returncode = 0
    if measure_status != 0 or collect_status != 0:
        sys.exit(f"chain_cpu: {ndtm} chain exited "
                 f"{measure_status}/{collect_status}")
    return cpu_seconds(measure_usage), cpu_seconds(collect_usage)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base ndtm binary")
    parser.add_argument("--change", required=True, help="candidate ndtm binary")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=7)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix="chain_cpu_") as work:
        pcap = os.path.join(work, "input.pcap")
        subprocess.run(
            [args.change, "synthesize", "--preset", workload["preset"],
             "--scale", f"{workload['scale']:g}",
             "--intervals", str(workload["intervals"]),
             "--seed", str(TRACE_SEED), "--out", pcap],
            check=True, stdout=subprocess.DEVNULL)
        flags = measure_flags(workload, work)
        sides = {"base": args.base, "change": args.change}
        cpu = {side: ([], []) for side in sides}
        for side in sides:  # unrecorded warm-up: page cache, binaries
            chain(sides[side], pcap, flags, work)
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                device, collector = chain(sides[side], pcap, flags, work)
                cpu[side][0].append(device)
                cpu[side][1].append(collector)
            print(f"pair {pair + 1}: device {cpu['base'][0][-1]:.3f} -> "
                  f"{cpu['change'][0][-1]:.3f} s, collector "
                  f"{cpu['base'][1][-1]:.3f} -> {cpu['change'][1][-1]:.3f} s",
                  file=sys.stderr, flush=True)

    for index, name in enumerate(("device", "collector")):
        base = median(cpu["base"][index])
        change = median(cpu["change"][index])
        wins = sum(c < b for b, c in zip(cpu["base"][index],
                                         cpu["change"][index]))
        print(f"{name:9}  base {base:.4f} s  change {change:.4f} s  "
              f"({(change - base) / base * 100:+.1f}%, change lower in "
              f"{wins}/{args.pairs} pairs)")


if __name__ == "__main__":
    main()
