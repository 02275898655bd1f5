// Per-packet processing cost microbenchmarks (google-benchmark) — the
// wall-clock companion to the memory-access counts of Tables 1 and 2,
// and to the Section 8 feasibility discussion.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baseline/ordinary_sampling.hpp"
#include "reporting/record_codec.hpp"
#include "trace/zipf.hpp"
#include "baseline/sampled_netflow.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/device.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "core/threshold_adaptor.hpp"
#include "eval/metrics.hpp"
#include "flowmem/flow_memory.hpp"
#include "hash/hash.hpp"
#include "net/frame_stream.hpp"
#include "net/journal.hpp"
#include "reporting/spool.hpp"
#include "reporting/wal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace nd;

/// Shared stream length. run_device's wrap-around masking requires a
/// power of two; keep the guarantee at compile time.
constexpr std::size_t kStreamPackets = 1 << 16;
static_assert(std::has_single_bit(kStreamPackets),
              "run_device's index masking needs a power-of-two stream");

/// Pre-generated skewed packet stream shared by the device benches.
std::vector<std::pair<packet::FlowKey, std::uint32_t>> make_stream(
    std::size_t flows, std::size_t packets) {
  common::Rng rng(7);
  std::vector<std::pair<packet::FlowKey, std::uint32_t>> stream;
  stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    // Skew toward low flow ids (elephants).
    const auto raw = rng.uniform(flows);
    const auto id = static_cast<std::uint32_t>(rng.uniform(raw + 1));
    stream.emplace_back(packet::FlowKey::destination_ip(id),
                        static_cast<std::uint32_t>(40 + rng.uniform(1460)));
  }
  return stream;
}

const auto& stream() {
  static const auto s = make_stream(10'000, kStreamPackets);
  return s;
}

template <typename Device>
void run_device(benchmark::State& state, Device& device) {
  std::size_t i = 0;
  const auto& packets = stream();
  // The `& (size - 1)` wrap silently corrupts indexing for any
  // non-power-of-two stream; fail loudly instead (NDEBUG strips
  // assert() in RelWithDebInfo, so check explicitly).
  if (!std::has_single_bit(packets.size())) {
    std::fprintf(stderr,
                 "run_device: stream size %zu is not a power of two\n",
                 packets.size());
    std::abort();
  }
  for (auto _ : state) {
    const auto& [key, size] = packets[i];
    device.observe(key, size);
    i = (i + 1) & (packets.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SampleAndHold(benchmark::State& state) {
  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 8192;
  config.threshold = 1'000'000;
  config.oversampling = 4.0;
  core::SampleAndHold device(config);
  run_device(state, device);
}
BENCHMARK(BM_SampleAndHold);

void BM_MultistageParallel(benchmark::State& state) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 8192;
  config.depth = static_cast<std::uint32_t>(state.range(0));
  config.buckets_per_stage = 4096;
  config.threshold = 1'000'000;
  config.conservative_update = false;
  config.shielding = false;
  core::MultistageFilter device(config);
  run_device(state, device);
}
BENCHMARK(BM_MultistageParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_MultistageConservative(benchmark::State& state) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 8192;
  config.depth = 4;
  config.buckets_per_stage = 4096;
  config.threshold = 1'000'000;
  config.conservative_update = true;
  config.shielding = true;
  core::MultistageFilter device(config);
  run_device(state, device);
}
BENCHMARK(BM_MultistageConservative);

void BM_MultistageSerial(benchmark::State& state) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 8192;
  config.depth = 4;
  config.buckets_per_stage = 4096;
  config.threshold = 1'000'000;
  config.serial = true;
  core::MultistageFilter device(config);
  run_device(state, device);
}
BENCHMARK(BM_MultistageSerial);

std::unique_ptr<core::MeasurementDevice> make_shard_filter(
    std::uint32_t shards, std::uint64_t shard_seed_value) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 8192 / shards;
  config.depth = 4;
  config.buckets_per_stage = 4096 / shards;
  config.threshold = 1'000'000;
  config.conservative_update = true;
  config.shielding = true;
  config.seed = shard_seed_value;
  return std::make_unique<core::MultistageFilter>(config);
}

/// Per-shard usage counters for BENCH_*.json: surfaces each shard's
/// usage plus the min/mean/max spread so regressions in the shard
/// balance (not just throughput) show up in the tracked JSON.
void report_shard_usage(benchmark::State& state,
                        const core::Report& report) {
  const eval::ShardUsageSummary summary = eval::summarize_shards(report);
  state.counters["usage_min"] = summary.min_usage;
  state.counters["usage_mean"] = summary.mean_usage;
  state.counters["usage_max"] = summary.max_usage;
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    state.counters["shard" + std::to_string(s) + "_usage"] =
        report.shards[s].smoothed_usage;
  }
}

/// The interval-close pool for `shards` shards: shards - 1 workers, and
/// none for one shard, whose null pool closes it inline.
std::unique_ptr<common::ThreadPool> close_pool(std::uint32_t shards) {
  if (shards <= 1) return nullptr;
  return std::make_unique<common::ThreadPool>(shards - 1);
}

/// RSS-style sharded multistage filter, Arg = shard count. The resource
/// budget (flow memory, stage counters) is split across shards so the
/// aggregate SRAM matches BM_MultistageConservative; items/sec is
/// aggregate packets/sec across all shards.
void BM_ShardedDevice(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const auto pool = close_pool(shards);
  core::ShardedDeviceConfig sharded;
  sharded.shards = shards;
  sharded.seed = 1;
  sharded.pool = pool.get();
  core::ShardedDevice device(
      sharded, [&](std::uint32_t, std::uint64_t shard_seed_value) {
        return make_shard_filter(shards, shard_seed_value);
      });
  run_device(state, device);
  report_shard_usage(state, device.end_interval());
}
BENCHMARK(BM_ShardedDevice)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();

/// Same device with per-shard threshold adaptation on — the adaptors
/// run only at interval boundaries, so per-packet throughput should
/// match BM_ShardedDevice; the counters track where adaptation steers
/// each shard's usage.
void BM_ShardedAdaptiveDevice(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const auto pool = close_pool(shards);
  core::ShardedDeviceConfig sharded;
  sharded.shards = shards;
  sharded.seed = 1;
  sharded.pool = pool.get();
  sharded.adaptor = core::multistage_adaptor();
  core::ShardedDevice device(
      sharded, [&](std::uint32_t, std::uint64_t shard_seed_value) {
        return make_shard_filter(shards, shard_seed_value);
      });
  run_device(state, device);
  // Replay the stream as whole intervals so the per-shard adaptors walk
  // the (deliberately high) bench threshold to equilibrium; the counters
  // then record where adaptation steered each shard's usage.
  core::Report report;
  for (int i = 0; i < 30; ++i) {
    for (const auto& [key, size] : stream()) {
      device.observe(key, size);
    }
    report = device.end_interval();
  }
  report_shard_usage(state, report);
}
BENCHMARK(BM_ShardedAdaptiveDevice)->Arg(1)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();

// --- Telemetry overhead series -------------------------------------
//
// The telemetry-off cost is already in BM_SampleAndHold /
// BM_MultistageConservative above: those devices carry the null
// instrument handles and pay one predictable `enabled()` branch per
// update site. The *Telemetry variants below run the identical
// configuration with a registry attached, so BM_X vs BM_XTelemetry on
// one build is the measured cost of telemetry-on: the devices add into
// plain per-interval tallies and publish them at end_interval(), which
// costs 3-8% per packet. BM_Telemetry* price the raw instruments the
// publish touches.

void BM_SampleAndHoldTelemetry(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 8192;
  config.threshold = 1'000'000;
  config.oversampling = 4.0;
  config.metrics = &registry;
  core::SampleAndHold device(config);
  run_device(state, device);
  state.counters["telemetry_series"] =
      static_cast<double>(registry.size());
}
BENCHMARK(BM_SampleAndHoldTelemetry);

void BM_MultistageConservativeTelemetry(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 8192;
  config.depth = 4;
  config.buckets_per_stage = 4096;
  config.threshold = 1'000'000;
  config.conservative_update = true;
  config.shielding = true;
  config.metrics = &registry;
  core::MultistageFilter device(config);
  run_device(state, device);
  state.counters["telemetry_series"] =
      static_cast<double>(registry.size());
}
BENCHMARK(BM_MultistageConservativeTelemetry);

/// Sharded device with the registry attached at both layers (sharded
/// mirror + per-shard inner instruments sharing series via labels) —
/// compare with BM_ShardedDevice at the same Arg.
void BM_ShardedDeviceTelemetry(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  telemetry::MetricsRegistry registry;
  const auto pool = close_pool(shards);
  core::ShardedDeviceConfig sharded;
  sharded.shards = shards;
  sharded.seed = 1;
  sharded.pool = pool.get();
  sharded.metrics = &registry;
  core::ShardedDevice device(
      sharded, [&](std::uint32_t shard, std::uint64_t shard_seed_value) {
        core::MultistageFilterConfig config;
        config.flow_memory_entries = 8192 / shards;
        config.depth = 4;
        config.buckets_per_stage = 4096 / shards;
        config.threshold = 1'000'000;
        config.conservative_update = true;
        config.shielding = true;
        config.seed = shard_seed_value;
        config.metrics = &registry;
        config.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::MultistageFilter>(config);
      });
  run_device(state, device);
  report_shard_usage(state, device.end_interval());
  state.counters["telemetry_series"] =
      static_cast<double>(registry.size());
}
BENCHMARK(BM_ShardedDeviceTelemetry)->Arg(4)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_TelemetryCounterAdd(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("bench_counter");
  std::uint64_t v = 0;
  for (auto _ : state) {
    counter.add(++v & 0xFF);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram& histogram = registry.histogram("bench_histogram");
  std::uint64_t v = 0;
  for (auto _ : state) {
    histogram.record(v += 97);
  }
  benchmark::DoNotOptimize(histogram.sum());
}
BENCHMARK(BM_TelemetryHistogramRecord);

/// Cold-path price of one interval-aligned snapshot + JSON line, over a
/// realistically sized registry (what ndtm --metrics pays per interval).
void BM_TelemetrySnapshotJson(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  for (int s = 0; s < 8; ++s) {
    const telemetry::Labels labels{{"shard", std::to_string(s)}};
    registry.counter("nd_shard_packets_total", labels).add(1000);
    registry.counter("nd_shard_bytes_total", labels).add(1'000'000);
    registry.gauge("nd_shard_occupancy", labels).set(0.9);
    registry.histogram("nd_pool_task_ns", labels).record(12345);
  }
  std::uint64_t interval = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        telemetry::to_json_line(registry.snapshot(interval++)));
  }
}
BENCHMARK(BM_TelemetrySnapshotJson);

void BM_SampledNetFlow(benchmark::State& state) {
  baseline::SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  baseline::SampledNetFlow device(config);
  run_device(state, device);
}
BENCHMARK(BM_SampledNetFlow);

void BM_OrdinarySampling(benchmark::State& state) {
  baseline::OrdinarySamplingConfig config;
  config.flow_memory_entries = 8192;
  config.byte_sampling_probability = 1e-5;
  baseline::OrdinarySampling device(config);
  run_device(state, device);
}
BENCHMARK(BM_OrdinarySampling);

void BM_FlowMemoryFindHit(benchmark::State& state) {
  flowmem::FlowMemory memory(4096, 1);
  std::vector<packet::FlowKey> keys;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    keys.push_back(packet::FlowKey::destination_ip(i));
    (void)memory.insert(keys.back(), 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.find(keys[i]));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_FlowMemoryFindHit);

void BM_FlowMemoryFindMiss(benchmark::State& state) {
  flowmem::FlowMemory memory(4096, 1);
  for (std::uint32_t i = 0; i < 2048; ++i) {
    (void)memory.insert(packet::FlowKey::destination_ip(i), 0);
  }
  std::uint32_t i = 1 << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memory.find(packet::FlowKey::destination_ip(i++)));
  }
}
BENCHMARK(BM_FlowMemoryFindMiss);

void BM_ReportEncode(benchmark::State& state) {
  core::Report report;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    report.flows.push_back(core::ReportedFlow{
        packet::FlowKey::destination_ip(i), i * 1000ULL, false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reporting::encode(report, packet::FlowKeyKind::kDestinationIp));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReportEncode);

void BM_ReportDecode(benchmark::State& state) {
  core::Report report;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    report.flows.push_back(core::ReportedFlow{
        packet::FlowKey::destination_ip(i), i * 1000ULL, false});
  }
  const auto encoded =
      reporting::encode(report, packet::FlowKeyKind::kDestinationIp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reporting::decode(encoded));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReportDecode);

/// The `ndtm measure` report stage on cos-interval-churn's report shape:
/// sort a 3.3 k-flow report of 10/8 5-tuples largest-first and render
/// its listing lines. As in the cos trace, most flows are one to three
/// packets of the common IP sizes (so many tie) and one in twenty is an
/// elephant of up to 400 packets. items/sec is flows sorted and rendered
/// per second; the unsorted report is restored outside the timed region.
void BM_ReportListing(benchmark::State& state) {
  constexpr std::size_t kFlows = 3'300;
  constexpr std::uint32_t kPacketSizes[] = {40, 40, 576, 1500};
  common::Rng rng(28);
  const auto host = [&rng] {
    return 0x0A000000U | static_cast<std::uint32_t>(rng.uniform(1U << 24));
  };
  core::Report unsorted;
  for (std::size_t i = 0; i < kFlows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        host(), host(), static_cast<std::uint16_t>(rng.uniform(65536)),
        static_cast<std::uint16_t>(rng.uniform(65536)),
        rng.uniform(4) == 0 ? packet::IpProtocol::kUdp
                            : packet::IpProtocol::kTcp);
    const std::uint64_t packets =
        1 + (rng.uniform(20) == 0 ? rng.uniform(400) : rng.uniform(3));
    for (std::uint64_t p = 0; p < packets; ++p) {
      flow.estimated_bytes +=
          rng.uniform(8) == 0 ? 40 + rng.uniform(1461)
                              : kPacketSizes[rng.uniform(4)];
    }
    flow.exact = rng.uniform(2) == 0;
    unsorted.flows.push_back(flow);
  }
  core::Report report;
  std::string listing;
  for (auto _ : state) {
    state.PauseTiming();
    report = unsorted;
    listing.clear();
    state.ResumeTiming();
    core::sort_by_size(report);
    for (const core::ReportedFlow& flow : report.flows) {
      core::append_flow_line(listing, flow);
    }
    benchmark::DoNotOptimize(listing.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFlows));
}
BENCHMARK(BM_ReportListing);

/// Collector-side frame parsing: a hello plus a burst of CRC-framed
/// interval reports fed through FrameStreamParser in fixed-size chunks
/// (the collector's read granularity). items/sec is report frames
/// verified+delivered per second. CRC verification dominates, so this
/// is the end-to-end witness for the hardware CRC dispatch.
void BM_FrameStream(benchmark::State& state) {
  struct NullEvents final : net::FrameStreamParser::Events {
    void on_hello(const net::Hello&) override {}
    void on_bye(const net::Bye&) override {}
    void on_report_frame(std::span<const std::uint8_t> payload) override {
      benchmark::DoNotOptimize(payload.data());
    }
    void on_resync(std::size_t) override {}
  };

  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kFlows = 64;
  std::vector<std::uint8_t> stream =
      net::encode_hello(net::Hello{1, 0});
  for (std::size_t f = 0; f < kFrames; ++f) {
    core::Report report;
    report.interval = static_cast<common::IntervalIndex>(f);
    report.threshold = 100'000;
    for (std::size_t i = 0; i < kFlows; ++i) {
      core::ReportedFlow flow;
      flow.key = packet::FlowKey::five_tuple(
          0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FF,
          static_cast<std::uint16_t>(1000 + i), 443,
          packet::IpProtocol::kTcp);
      flow.estimated_bytes = 100'000 + 997 * i;
      report.flows.push_back(flow);
    }
    const std::vector<std::uint8_t> frame = reporting::frame_payload(
        reporting::encode(report, packet::FlowKeyKind::kFiveTuple));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  net::FrameStreamParser parser;
  NullEvents events;
  for (auto _ : state) {
    for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - pos);
      parser.feed({stream.data() + pos, n}, events);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFrames));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_FrameStream)->Arg(512)->Arg(64 * 1024);

/// The CRC-32 itself, per (buffer size, kernel): bytes/sec is the
/// ceiling every CRC consumer (framing, WAL, journal, checkpoint)
/// inherits. Sizes bracket the real payloads: a control frame, an MTU,
/// an interval report burst. Kernel 1 is common::crc32 — PCLMULQDQ
/// folding wherever the host runs it — and kernel 0 is slice-by-8
/// alone (detail::crc32_slice8), what every other host runs.
void BM_Crc32(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const bool entry_point = state.range(1) != 0;
  common::Rng rng(11);
  std::vector<std::uint8_t> data(size);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.word());
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = entry_point
              ? common::crc32(data, crc)
              : ~common::detail::crc32_slice8(data.data(), size, ~crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
  state.SetLabel(entry_point ? "crc32" : "slice8");
}
BENCHMARK(BM_Crc32)
    ->Args({64, 0})->Args({64, 1})
    ->Args({1500, 0})->Args({1500, 1})
    ->Args({65536, 0})->Args({65536, 1});

/// Device-side spool append throughput per fsync policy: arg 0 is
/// SpoolWalConfig::fsync_every (0 = fsync off entirely). Appended frames are
/// acked immediately so the disk-budget eviction keeps memory and disk
/// bounded while the bench runs.
void BM_SpoolAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "nd_bench_spool";
  fs::remove_all(dir);
  reporting::SpoolWalConfig config;
  config.directory = dir.string();
  config.max_total_bytes = 1ULL << 26;
  config.fsync_every = static_cast<std::uint32_t>(state.range(0));
  reporting::SpoolWal spool(config);

  core::Report report;
  report.interval = 0;
  report.threshold = 100'000;
  for (std::size_t i = 0; i < 64; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::destination_ip(
        0x0A000001 + static_cast<std::uint32_t>(i));
    flow.estimated_bytes = 150'000 + 991 * i;
    report.flows.push_back(flow);
  }
  const std::size_t frame_size =
      reporting::kFrameHeaderBytes + reporting::encoded_size(report);

  for (auto _ : state) {
    benchmark::DoNotOptimize(spool.append(
        report, packet::FlowKeyKind::kDestinationIp, {}));
    spool.ack();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame_size));
  state.counters["fsyncs"] =
      static_cast<double>(spool.write_stats().fsyncs);
  fs::remove_all(dir);
}
BENCHMARK(BM_SpoolAppend)->Arg(0)->Arg(1)->Arg(8)->Arg(64);

/// Collector restart cost: replaying a journal of realistic report
/// records. CRC verification dominates, so this tracks the dispatch
/// tier the same way the frame parser does.
void BM_JournalReplay(benchmark::State& state) {
  struct NullEvents final : net::JournalReplayEvents {
    void on_report(std::uint32_t, std::uint32_t,
                   std::span<const std::uint8_t> payload) override {
      benchmark::DoNotOptimize(payload.data());
    }
    void on_bye(std::uint32_t, std::uint32_t, std::uint32_t) override {}
  };

  constexpr std::size_t kRecords = 64;
  core::Report report;
  report.interval = 0;
  report.threshold = 100'000;
  for (std::size_t i = 0; i < 64; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::destination_ip(
        0x0A000001 + static_cast<std::uint32_t>(i));
    flow.estimated_bytes = 150'000 + 991 * i;
    report.flows.push_back(flow);
  }
  const std::vector<std::uint8_t> payload =
      reporting::encode(report, packet::FlowKeyKind::kDestinationIp);
  std::vector<std::uint8_t> journal;
  for (std::size_t r = 0; r < kRecords; ++r) {
    reporting::wal::append(journal, net::kJournalMagic,
                           net::encode_journal_report(1, 0, payload));
  }

  NullEvents events;
  for (auto _ : state) {
    const net::JournalReplayStats stats =
        net::replay_journal(journal, events);
    benchmark::DoNotOptimize(stats.records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRecords));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(journal.size()));
}
BENCHMARK(BM_JournalReplay);

void BM_ZipfSampler(benchmark::State& state) {
  const trace::ZipfSampler sampler(100'000, 1.1);
  common::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_ZipfSampler);

void BM_TabulationHash(benchmark::State& state) {
  common::Rng rng(3);
  hash::TabulationHash h(rng);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(key++));
  }
}
BENCHMARK(BM_TabulationHash);

}  // namespace
