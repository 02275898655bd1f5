#!/usr/bin/env python3
"""End-to-end benchmark of the deployed device -> collector path.

Each timed chain is one `ndtm collect` process plus one
`ndtm measure --connect` process replaying a generated pcap to it over
loopback TCP, exactly as an operator runs them. With --trace 1 the
benchmark also runs perfbench_tool's traced in-process run, which makes
the same library calls with every layer timed from outside, and prints
the per-layer split instead of the end-to-end metrics.

    python3 perfbench/run.py --workload mag-5tuple --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object: correct, attempted and
failed (interval reports closed by the device / missing from the merged
export, summed over the timed chains) and metrics. See README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload: the trace it replays (preset, scale, trace intervals of
# 5 s) and the `ndtm measure` configuration. `metrics` turns the
# telemetry layer on (--metrics).
WORKLOADS = {
    "mag-5tuple": dict(
        preset="mag", scale=1.0, intervals=6, algorithm="multistage",
        flow_def="5tuple", threshold=100_000, entries=4096, interval=5,
        shards=1, metrics=False),
    "mag-dstip-sharded": dict(
        preset="mag", scale=1.0, intervals=6, algorithm="sample-and-hold",
        flow_def="dstip", threshold=100_000, entries=4096, interval=5,
        shards=3, metrics=True),
    "cos-interval-churn": dict(
        preset="cos", scale=1.0, intervals=40, algorithm="sample-and-hold",
        flow_def="5tuple", threshold=1, entries=4096, interval=1,
        shards=1, metrics=False),
}

SETUP_PER_CHAIN = 2     # zero-packet chains after each timed chain (setup_s)
MIN_CHAINS = 3          # timed chains per run, however short --seconds is
CHAIN_TIMEOUT_S = 60    # a hung chain is killed and the run fails
KEEP_INPUTS = 3         # cached pcaps kept besides the empty one
DEVICE_SEED = 1         # `ndtm measure --seed`, fixed like its default
# Host speed the time metrics are scaled to, as the reference pass's cost
# per packet. Other tenants' load moves this host's speed by up to 2x
# within an hour; the reference pass (benchmark code, not repository
# code) moves with it, so chain time / reference time stays put.
REF_NS_PER_PACKET = 100.0


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def state_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(state):
    """Configure once, then let cmake bring the binaries up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "tools", "ndtm.cpp")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise BenchError(f"no repository sources under {ROOT}")
    cmake_dir = os.path.join(state, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return (os.path.join(cmake_dir, "repo", "tools", "ndtm"),
            os.path.join(cmake_dir, "perfbench_tool"))


def run_tool(argv):
    # The tool's own watchdog (chain --timeout) reaps its children first.
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=CHAIN_TIMEOUT_S + 30)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_pcap(state, tool, preset, scale, intervals, seed):
    """The workload's pcap, generated outside all timing and cached by
    (preset, scale, intervals, seed); returns (path, info)."""
    inputs = os.path.join(state, "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.join(inputs, f"{preset}-x{scale:g}-i{intervals}-s{seed}.pcap")
    meta = path + ".json"
    if os.path.isfile(path) and os.path.isfile(meta):
        with open(meta) as stream:
            return path, json.load(stream)
    cached = sorted((os.path.join(inputs, name) for name in os.listdir(inputs)
                     if name.endswith(".pcap") and "-i0-" not in name),
                    key=os.path.getmtime)
    for old in cached[:max(0, len(cached) - (KEEP_INPUTS - 1))]:
        for stale in (old, old + ".json"):
            if os.path.exists(stale):
                os.remove(stale)
    info = run_tool([tool, "gen", "--preset", preset, "--scale", f"{scale:g}",
                     "--intervals", str(intervals), "--seed", str(seed),
                     "--out", path])
    # Write the pcap back now: left dirty, it would be flushed in the
    # middle of the timed chains.
    with open(path, "rb") as stream:
        os.fsync(stream.fileno())
    info["sha256"] = sha256(path)
    with open(meta, "w") as stream:
        json.dump(info, stream)
    return path, info


def measure_flags(workload, work):
    flags = ["--algorithm", workload["algorithm"],
             "--flow-def", workload["flow_def"],
             "--threshold", str(workload["threshold"]),
             "--entries", str(workload["entries"]),
             "--interval", str(workload["interval"]),
             "--seed", str(DEVICE_SEED)]
    if workload["shards"] > 1:
        flags += ["--shards", str(workload["shards"])]
    if workload["metrics"]:
        flags += ["--metrics", os.path.join(work, "metrics.jsonl")]
    return flags


def run_chain(tool, ndtm, pcap, flags, work, capture=False):
    """One collect + measure chain (perfbench_tool chain): wall times, CPU,
    peak RSS and exit codes; `capture` keeps both processes' stdout."""
    chain = run_tool([tool, "chain", "--ndtm", ndtm, "--in", pcap,
                      "--work", work, "--capture", str(int(capture)),
                      "--timeout", str(CHAIN_TIMEOUT_S), "--", *flags])
    chain["export"] = os.path.join(work, "merged.bin")
    return chain


def export_summary(path):
    """(reports, sha256) of a merged export; the file is removed after,
    so its pages never need writing back."""
    with open(path, "rb") as stream:
        data = stream.read()
    os.remove(path)
    reports = 0
    offset = 0
    while offset + 24 <= len(data):
        flows = int.from_bytes(data[offset + 12:offset + 16], "big")
        shards = data[offset + 7]
        offset += 24 + 24 * flows + 56 * shards
        reports += 1
    if offset != len(data):
        reports = -1  # not a sequence of whole reports
    return reports, hashlib.sha256(data).hexdigest()


def parse_measure_stdout(path):
    """`done: N packets (U unmatched ...), K intervals` and the transport
    summary's abandoned-report count."""
    done = abandoned = None
    with open(path) as stream:
        for line in stream:
            words = line.split()
            if line.startswith("done:"):
                done = (int(words[1]), int(words[3].lstrip("(")),
                        int(words[-2]))
            elif line.startswith("transport:"):
                abandoned = int(words[-3])
    if done is None or abandoned is None:
        raise BenchError(f"unexpected ndtm measure output in {path}")
    return done, abandoned


def run(args):
    workload = dict(WORKLOADS[args.workload])
    workload["scale"] *= args.scale
    state = state_dir()
    os.makedirs(state, exist_ok=True)
    with open(os.path.join(state, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ndtm, tool = build(state)
        work = os.path.join(state, "work")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        return measure_workload(args, workload, state, work, ndtm, tool)


def measure_workload(args, workload, state, work, ndtm, tool):
    failures = []

    def gate(ok, what):
        if not ok:
            failures.append(what)
            log(f"correctness: {what}")

    pcap, info = input_pcap(state, tool, workload["preset"],
                            workload["scale"], workload["intervals"],
                            args.seed)
    empty, _ = input_pcap(state, tool, workload["preset"], 1.0, 0, 0)
    packets = info["packets"]
    print(f"input: {os.path.basename(pcap)} packets={packets} "
          f"bytes={info['bytes']} sha256={info['sha256']}")
    flags = measure_flags(workload, work)

    # Warm-up chain, which is also the one the gate scores in full against
    # ground truth from the generated packets, outside every timing.
    chain = run_chain(tool, ndtm, pcap, flags, work, capture=True)
    gate(chain["measure_code"] == 0 and chain["collect_code"] == 0,
         f"warm-up chain exited {chain['measure_code']}/{chain['collect_code']}")
    truth = run_tool([tool, "check", "--in", pcap,
                      "--flow-def", workload["flow_def"],
                      "--interval", str(workload["interval"]),
                      "--threshold", str(workload["threshold"]),
                      "--export", chain["export"]])
    (read, unmatched, closed), abandoned = parse_measure_stdout(
        os.path.join(work, "measure.out"))
    reference_reports, reference_digest = export_summary(chain["export"])
    gate(read == truth["records"] == packets,
         f"packets read {read}, ground truth {truth['records']}, pcap {packets}")
    gate(read - unmatched == truth["classified"],
         "classified packet count differs from ground truth")
    if workload["shards"] > 1:
        gate(truth["shard_packets"] == truth["classified"],
             "per-shard packet tallies do not add up to the packets read")
    gate(closed == truth["intervals"], "device closed a different number "
         "of intervals than the ground truth clock")
    gate(abandoned == 0, "device abandoned reports")
    gate(truth["overcounted_flows"] == 0,
         f"{truth['overcounted_flows']} flows overcounted")
    gate(reference_reports == truth["reports"], "export does not decode")

    spans = os.path.join(state, "spans", f"{args.workload}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    attempted = 0
    failed = 0
    walls, cpus, raw_walls, raw_cpus, ref_ns = [], [], [], [], []
    measure_rss, collect_rss, setup, runs = [], [], [], []

    def timed_chain():
        """One reference pass and one timed chain, then SETUP_PER_CHAIN
        zero-packet chains, so set-up is sampled across the whole run."""
        nonlocal attempted, failed
        ref = run_tool([tool, "reference", "--in", pcap])
        gate(ref["packets"] == packets,
             "reference pass read a different packet count")
        ref_ns.append(ref["seconds"] / packets * 1e9)
        scale = REF_NS_PER_PACKET / ref_ns[-1]
        chain = run_chain(tool, ndtm, pcap, flags, work)
        reports, digest = export_summary(chain["export"])
        gate(chain["measure_code"] == 0 and chain["collect_code"] == 0,
             "timed chain exited non-zero")
        gate(digest == reference_digest or reports < reference_reports,
             "merged export differs between identical chains")
        attempted += closed
        failed += closed - max(reports, 0)
        raw_walls.append(chain["wall_s"])
        raw_cpus.append(chain["cpu_s"])
        walls.append(chain["wall_s"] * scale)
        cpus.append(chain["cpu_s"] * scale)
        measure_rss.append(chain["measure_rss_mb"])
        collect_rss.append(chain["collect_rss_mb"])
        for _ in range(SETUP_PER_CHAIN):
            chain = run_chain(tool, ndtm, empty, flags, work)
            gate(chain["measure_code"] == 0 and chain["collect_code"] == 0,
                 "zero-packet chain exited non-zero")
            setup.append(chain["setup_wall_s"])

    def traced_run():
        result = run_tool([tool, "traced", "--in", pcap,
                           "--export", os.path.join(work, "traced.bin"),
                           "--spans", spans, *flags])
        _, digest = export_summary(os.path.join(work, "traced.bin"))
        gate(digest == reference_digest,
             "traced run's merged reports differ from the untraced run's")
        gate(result["complete"] and result["abandoned"] == 0,
             "traced run did not deliver every report")
        gate(result["recorder_dropped"] == 0, "trace buffer overflowed")
        gate(result["packets_read"] == packets,
             "traced run read a different packet count")
        runs.append(result)

    # With --trace 1, traced runs alternate with the untraced chains, so
    # trace.overhead_pct compares runs made under the same host load.
    started = time.monotonic()
    while len(walls) < MIN_CHAINS or time.monotonic() - started < args.seconds:
        timed_chain()
        if args.trace:
            traced_run()

    if not args.trace:
        values = {
            "e2e_mpps": packets / median(walls) / 1e6,
            "cpu_ns_per_packet": median(cpus) / packets * 1e9,
            "setup_s": median(setup),
            "device_peak_rss_mb": median(measure_rss),
            "collector_peak_rss_mb": median(collect_rss),
            "hh_bytes_accounted_pct": truth["hh_bytes_accounted_pct"],
        }
    else:
        untraced_wall = median(raw_walls)
        traced_wall = median(r["wall_ns"] for r in runs) / 1e9
        values = {name: median(r["metrics"][name] for r in runs)
                  for name in runs[0]["metrics"]}
        values["trace.overhead_pct"] = (
            100.0 * (traced_wall - untraced_wall) / untraced_wall)
        values["host.e2e_mpps_raw"] = packets / untraced_wall / 1e6
        values["host.cpu_ns_per_packet_raw"] = (
            median(raw_cpus) / packets * 1e9)
        values["host.ref_ns_per_pkt"] = median(ref_ns)
        values["missed_above_t"] = truth["missed_above_t"]
        values["overcounted_flows"] = truth["overcounted_flows"]
        values["avg_rel_error_pct"] = truth["avg_rel_error_pct"]
        values["reports_failed_pct"] = 100.0 * failed / attempted
        print(f"spans: {spans} ({len(runs)} traced runs)")

    log("chain walls (s): " + " ".join(f"{w:.4f}" for w in raw_walls))
    print(f"host: reference pass {median(ref_ns):.2f} ns/packet, unscaled "
          f"e2e {packets / median(raw_walls) / 1e6:.4f} Mpkt/s, "
          f"{median(raw_cpus) / packets * 1e9:.2f} CPU ns/packet")
    gate(failed == 0, f"{failed} of {attempted} reports missing from "
         "the merged exports")
    print(f"ground truth: {truth['flows_above_t']} flows >= T over "
          f"{truth['intervals']} intervals, {truth['missed_above_t']} missed, "
          f"{truth['overcounted_flows']} overcounted, avg rel error "
          f"{truth['avg_rel_error_pct']:.4f}%; {len(walls)} timed chains, "
          f"{len(setup)} set-up chains")
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    for name, value in metrics.items():
        print(f"  {name:28s} {value['value']:.6g} {value['unit']}")
    return dict(correct=not failures, attempted=attempted, failed=failed,
                metrics=metrics)


def metric_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return {entry["name"]: entry["unit"]
            for entry in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input by this factor (smoke test)")
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
