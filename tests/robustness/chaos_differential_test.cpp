// Chaos differential suite: the tentpole property of the robustness
// layer, checked end-to-end over device -> report -> framed channel ->
// collector, on the path that ships: ResilientChannel over a
// FrameTransport whose accepted bytes a collector-side stream parser
// decodes (tests/support/collector_sink.hpp).
//
// Under ANY fault plan, one of two things must hold for every interval:
// either the collector decodes a report bit-identical to a fault-free
// run (the recovery paths healed the faults), or the missing interval
// is accounted for — in ResilientChannelStats for sender-side losses,
// in the collector's resyncs or undecoded buffered bytes for frames
// corrupted on the wire — and whatever did survive is a
// largest-flow-first prefix. Nothing is ever lost silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../support/collector_sink.hpp"
#include "../support/report_testing.hpp"
#include "core/multistage_filter.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "robustness/fault.hpp"
#include "trace/presets.hpp"

namespace nd {
namespace {

std::vector<std::vector<packet::ClassifiedPacket>> chaos_trace() {
  auto config = trace::scaled(trace::Presets::cos(31), 0.02);
  config.num_intervals = 5;
  return testing::classify_trace(config,
                                 packet::FlowDefinition::five_tuple());
}

std::unique_ptr<core::MeasurementDevice> make_device() {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 512;
  config.depth = 3;
  config.buckets_per_stage = 256;
  config.threshold = 30'000;
  config.preserve = flowmem::PreservePolicy::kPreserve;
  config.seed = 3;
  return std::make_unique<core::MultistageFilter>(config);
}

struct PipelineResult {
  /// Per-interval device reports, sorted largest-first (what a
  /// lossless channel would deliver).
  std::vector<core::Report> produced;
  /// The reports the collector decoded, in arrival order.
  std::vector<core::Report> received;
  /// Per send(): whether the collector registered that interval's frame
  /// — decoded its report, resynced, or holds undecoded bytes after it.
  std::vector<bool> registered;
  std::vector<reporting::DeliveryOutcome> outcomes;
  reporting::ResilientChannelStats stats;
  reporting::ChannelStats channel;
  std::uint64_t resyncs{0};
  std::uint64_t frames_attempted{0};
};

PipelineResult run_pipeline(
    const std::vector<std::vector<packet::ClassifiedPacket>>& intervals,
    robustness::FaultInjector* faults,
    std::uint64_t bytes_per_interval = 1ULL << 20) {
  testing::CollectorSink sink;
  reporting::ResilientChannelConfig config;
  config.bytes_per_interval = bytes_per_interval;
  config.max_attempts = 4;
  config.faults = faults;
  config.transport = &sink;
  reporting::ResilientChannel channel(config);

  auto device = make_device();
  PipelineResult result;
  for (const auto& batch : intervals) {
    device->observe_batch(batch);
    core::Report report = device->end_interval();
    core::sort_by_size(report);
    const std::size_t reports_before = sink.reports.size();
    const std::uint64_t resyncs_before = sink.resyncs;
    result.outcomes.push_back(channel.send(report));
    result.registered.push_back(sink.reports.size() > reports_before ||
                                sink.resyncs > resyncs_before ||
                                sink.buffered() > 0);
    // entries_used is device-local state the wire format omits; zero it
    // so `produced` and the decoded `received` compare on the
    // wire-visible fields.
    report.entries_used = 0;
    result.produced.push_back(std::move(report));
  }
  for (const reporting::DecodedReport& decoded : sink.reports) {
    result.received.push_back(decoded.report);
  }
  result.stats = channel.stats();
  result.channel = channel.channel_stats();
  result.resyncs = sink.resyncs;
  result.frames_attempted = sink.frames.size();
  return result;
}

void expect_streams_equal(const std::vector<core::Report>& a,
                          const std::vector<core::Report>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    testing::expect_reports_equal(a[i], b[i]);
  }
}

TEST(ChaosDifferential, FaultFreePipelineDeliversEverything) {
  const auto intervals = chaos_trace();
  const PipelineResult result = run_pipeline(intervals, nullptr);
  expect_streams_equal(result.received, result.produced);
  EXPECT_EQ(result.stats.retries, 0u);
  EXPECT_EQ(result.stats.records_shed, 0u);
}

TEST(ChaosDifferential, DropsWithRetriesHealBitIdentically) {
  const auto intervals = chaos_trace();
  const PipelineResult baseline = run_pipeline(intervals, nullptr);

  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.schedule = {0, 2, 5};  // drop some attempts, never max_attempts
  robustness::FaultInjector faults(
      robustness::FaultPlan(21).inject("channel.drop", spec));
  const PipelineResult chaotic = run_pipeline(intervals, &faults);

  expect_streams_equal(chaotic.received, baseline.received);
  EXPECT_EQ(chaotic.stats.drops, 3u);
  EXPECT_EQ(chaotic.stats.retries, 3u);
  EXPECT_EQ(chaotic.stats.reports_abandoned, 0u);
  // Dropped attempts never reach the wire: one frame per interval.
  EXPECT_EQ(chaotic.frames_attempted, intervals.size());
  EXPECT_EQ(chaotic.resyncs, 0u);
}

TEST(ChaosDifferential, CorruptedFramesAreResyncedPastNeverMisdecoded) {
  // Over TCP a corrupted frame is not retried: the transport accepted
  // it, so the channel counts it delivered, and the collector's CRC
  // check is the only line of defence. It must never decode a damaged
  // frame into a report, and every interval it lost must show on its
  // side of the wire.
  const auto intervals = chaos_trace();
  const PipelineResult baseline = run_pipeline(intervals, nullptr);

  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kCorrupt;
  spec.schedule = {0, 1, 3};
  robustness::FaultInjector faults(
      robustness::FaultPlan(22).inject("channel.corrupt", spec));
  const PipelineResult chaotic = run_pipeline(intervals, &faults);

  // The sender saw one clean attempt per interval.
  EXPECT_EQ(chaotic.frames_attempted, intervals.size());
  EXPECT_EQ(chaotic.stats.retries, 0u);
  for (const reporting::DeliveryOutcome& outcome : chaotic.outcomes) {
    EXPECT_TRUE(outcome.delivered);
    EXPECT_EQ(outcome.attempts, 1u);
  }
  // Every report the collector yields is bit-identical to the
  // fault-free report for its interval, in interval order...
  // No corrupted frame decodes, so each one costs at least its own
  // interval.
  ASSERT_LE(chaotic.received.size(),
            baseline.received.size() - spec.schedule.size());
  std::size_t next = 0;
  for (const core::Report& arrived : chaotic.received) {
    while (next < baseline.received.size() &&
           baseline.received[next].interval != arrived.interval) {
      ++next;
    }
    ASSERT_LT(next, baseline.received.size())
        << "interval " << arrived.interval << " out of order or unknown";
    testing::expect_reports_equal(arrived, baseline.received[next]);
    ++next;
  }
  // ...and every interval's frame registered at the collector: decoded,
  // resynced past, or held as undecoded bytes.
  for (std::size_t i = 0; i < chaotic.registered.size(); ++i) {
    EXPECT_TRUE(chaotic.registered[i]) << "interval " << i;
  }
  EXPECT_GT(chaotic.resyncs, 0u);
}

TEST(ChaosDifferential, PersistentDropIsAbandonedNeverSilent) {
  const auto intervals = chaos_trace();
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.probability = 1.0;
  robustness::FaultInjector faults(
      robustness::FaultPlan(24).inject("channel.drop", spec));
  const PipelineResult chaotic = run_pipeline(intervals, &faults);

  // Total loss — but fully accounted: every report abandoned after
  // exactly max_attempts dropped attempts.
  EXPECT_TRUE(chaotic.received.empty());
  EXPECT_EQ(chaotic.stats.reports_abandoned, intervals.size());
  EXPECT_EQ(chaotic.stats.drops, 4u * intervals.size());
  EXPECT_EQ(chaotic.frames_attempted, 0u);
}

TEST(ChaosDifferential, BudgetPressureShedsLargestFirstWithExactCounts) {
  const auto intervals = chaos_trace();
  // Room for the header and a single record per interval: every
  // interval with more than one heavy hitter must shed.
  const std::uint64_t budget =
      reporting::kHeaderBytes + 1 * reporting::kRecordBytes;
  const PipelineResult squeezed = run_pipeline(intervals, nullptr, budget);

  ASSERT_EQ(squeezed.received.size(), squeezed.produced.size());
  std::uint64_t shed_total = 0;
  for (std::size_t i = 0; i < squeezed.received.size(); ++i) {
    const core::Report& full = squeezed.produced[i];
    const core::Report& arrived = squeezed.received[i];
    EXPECT_EQ(arrived.interval, full.interval);
    ASSERT_LE(arrived.flows.size(), full.flows.size());
    // Survivors are exactly the largest-first prefix of the full
    // report: the heavy hitters the paper says are worth shipping.
    for (std::size_t f = 0; f < arrived.flows.size(); ++f) {
      EXPECT_EQ(arrived.flows[f].key, full.flows[f].key)
          << "interval " << i << " flow " << f;
      EXPECT_EQ(arrived.flows[f].estimated_bytes,
                full.flows[f].estimated_bytes);
    }
    shed_total += full.flows.size() - arrived.flows.size();
  }
  EXPECT_GT(shed_total, 0u);
  EXPECT_EQ(squeezed.stats.records_shed, shed_total);
  EXPECT_EQ(squeezed.channel.records_offered -
                squeezed.channel.records_delivered,
            shed_total);
}

}  // namespace
}  // namespace nd
