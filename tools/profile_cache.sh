#!/bin/sh
# Cache-behaviour profile of the per-packet microbenchmarks.
#
# Usage: profile_cache.sh <perf_per_packet binary> [benchmark filter]
#
# Prefers `perf stat` (hardware cache/TLB counters, negligible overhead);
# falls back to valgrind --tool=cachegrind (simulated, ~50x slower but
# works in containers without perf_event access). The filter defaults to
# the series the tag-partitioned layout and the CRC-32 tiers target.
#
# Events are probed ONE AT A TIME before the real run: perf rejects the
# whole -e list when any single event is unsupported (dTLB miss counters
# in particular are absent on many virtualized hosts), so a hardcoded
# list silently lost every counter, dTLB misses included, on exactly the
# hosts that lack one. Unsupported events are reported and skipped
# instead.
set -u

BENCH="${1:?usage: profile_cache.sh <perf_per_packet binary> [filter]}"
FILTER="${2:-BM_SampleAndHoldBatch|BM_MultistageParallelBatch|BM_FlowMemoryFind.*|BM_Crc32.*|BM_FrameStream.*}"

if [ ! -x "$BENCH" ]; then
    echo "profile_cache: benchmark binary not found: $BENCH" >&2
    exit 1
fi

# google-benchmark >= 1.8 accepts a bare float for --benchmark_min_time
# on every version; the "0.2s" suffix form is rejected by older builds.
run_args="--benchmark_filter=$FILTER --benchmark_min_time=0.2"

if command -v perf >/dev/null 2>&1 &&
   perf stat -e cycles true >/dev/null 2>&1; then
    # The dTLB counters come last so the cache counters survive even on
    # hosts that expose only the architectural events.
    wanted="cycles instructions L1-dcache-loads L1-dcache-load-misses \
LLC-loads LLC-load-misses dTLB-loads dTLB-load-misses dTLB-store-misses"
    events=""
    missing=""
    for e in $wanted; do
        if perf stat -e "$e" true >/dev/null 2>&1; then
            events="$events,$e"
        else
            missing="$missing $e"
        fi
    done
    events="${events#,}"
    if [ -n "$missing" ]; then
        echo "profile_cache: unsupported events skipped:$missing" >&2
    fi
    if [ -n "$events" ]; then
        echo "== perf stat (hardware counters: $events) =="
        # shellcheck disable=SC2086
        exec perf stat -e "$events" "$BENCH" $run_args
    fi
    echo "profile_cache: no usable hardware events; falling back" >&2
fi

if command -v valgrind >/dev/null 2>&1; then
    echo "== cachegrind (simulated; perf unavailable) =="
    out="$(mktemp)"
    # Cachegrind's D1/LL miss columns approximate the cache counters;
    # it simulates no TLB, so dTLB numbers need real perf access.
    # shellcheck disable=SC2086
    valgrind --tool=cachegrind --cachegrind-out-file="$out" \
        "$BENCH" --benchmark_filter="$FILTER" --benchmark_min_time=0.05
    rc=$?
    if command -v cg_annotate >/dev/null 2>&1; then
        cg_annotate "$out" | head -40
    fi
    rm -f "$out"
    exit $rc
fi

echo "profile_cache: neither perf nor valgrind is available" >&2
exit 1
