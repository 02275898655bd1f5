// ResilientChannel unit suite: each transit fault in isolation, with
// exact accounting, over the CollectorSink fake (a FrameTransport that
// parses what it accepts the way net::Collector does). The chaos
// differential suite composes them; here every counter is pinned to its
// precise expected value.
#include "reporting/resilient_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "../support/collector_sink.hpp"
#include "../support/report_testing.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/device.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "robustness/fault.hpp"

namespace nd::reporting {
namespace {

core::Report make_report(common::IntervalIndex interval,
                         std::size_t flows) {
  core::Report report;
  report.interval = interval;
  report.threshold = 50'000;
  report.entries_used = flows;
  for (std::size_t i = 0; i < flows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FF,
        static_cast<std::uint16_t>(1000 + i), 80,
        packet::IpProtocol::kTcp);
    // Distinct descending-when-sorted sizes so prefix checks are exact.
    flow.estimated_bytes = 100'000 + 1'000 * ((i * 7) % flows);
    report.flows.push_back(flow);
  }
  return report;
}

robustness::FaultPlan site_schedule(const std::string& site,
                                    robustness::FaultKind kind,
                                    std::vector<std::uint64_t> schedule) {
  robustness::FaultSpec spec;
  spec.kind = kind;
  spec.schedule = std::move(schedule);
  return robustness::FaultPlan(5).inject(site, spec);
}

TEST(ResilientChannel, FaultFreeDeliveryIsBitIdentical) {
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  ResilientChannel channel(config);
  const core::Report report = make_report(0, 8);
  const DeliveryOutcome outcome = channel.send(report);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.records_delivered, 8u);
  EXPECT_EQ(outcome.records_shed, 0u);

  // The channel sorts largest-first before shipping; compare against
  // the same ordering. entries_used is device-local state that the wire
  // format deliberately omits, so it reads back as zero.
  core::Report expected = report;
  core::sort_by_size(expected);
  expected.entries_used = 0;
  ASSERT_EQ(sink.reports.size(), 1u);
  testing::expect_reports_equal(sink.reports[0].report, expected);
  EXPECT_EQ(sink.resyncs, 0u);
  EXPECT_EQ(sink.buffered(), 0u);

  const ResilientChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.reports_sent, 1u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.transport_failures, 0u);
  EXPECT_EQ(stats.reports_abandoned, 0u);
  EXPECT_EQ(stats.backoff_us, 0u);
}

TEST(ResilientChannel, SingleDropIsRetriedAndRecovered) {
  robustness::FaultPlan plan =
      site_schedule("channel.drop", robustness::FaultKind::kDrop, {0});
  robustness::FaultInjector faults(plan);
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.faults = &faults;
  config.backoff_base = std::chrono::microseconds(100);
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(make_report(0, 4));
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 2u);
  const ResilientChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.backoff_us, 100u);  // base * 2^0
  // The dropped attempt never reached the wire.
  EXPECT_EQ(sink.frames.size(), 1u);
  ASSERT_EQ(sink.reports.size(), 1u);
}

TEST(ResilientChannel, PersistentDropIsAbandonedWithFullAccounting) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.probability = 1.0;
  robustness::FaultInjector faults(
      robustness::FaultPlan(5).inject("channel.drop", spec));
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.faults = &faults;
  config.max_attempts = 3;
  config.backoff_base = std::chrono::microseconds(100);
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(make_report(0, 4));
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 3u);
  const ResilientChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.drops, 3u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.reports_abandoned, 1u);
  // Exponential: 100 * (1 + 2 + 4).
  EXPECT_EQ(stats.backoff_us, 700u);
  EXPECT_TRUE(sink.frames.empty());
}

TEST(ResilientChannel, BackoffSleepsOnTheInjectedClockExactly) {
  // The clock seam: with sleep_on_backoff set and a FakeClock attached,
  // the retry loop's exponential schedule is asserted sleep by sleep —
  // no wall-clock cost, no flakiness under sanitizers.
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.probability = 1.0;
  robustness::FaultInjector faults(
      robustness::FaultPlan(5).inject("channel.drop", spec));
  common::FakeClock clock;
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.faults = &faults;
  config.max_attempts = 4;
  config.backoff_base = std::chrono::microseconds(1000);
  config.sleep_on_backoff = true;
  config.clock = &clock;
  ResilientChannel channel(config);

  EXPECT_FALSE(channel.send(make_report(0, 2)).delivered);
  ASSERT_EQ(clock.sleep_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(clock.sleeps()[i],
              std::chrono::microseconds(1000) * (1 << i))
        << "retry " << i;
  }
  // 1 + 2 + 4 + 8 milliseconds, and the recorded stat agrees.
  EXPECT_EQ(clock.elapsed(), std::chrono::microseconds(15'000));
  EXPECT_EQ(channel.stats().backoff_us, 15'000u);
}

TEST(ResilientChannel, TransportFailuresRetryOnTheSameBackoffPath) {
  // A collector that refuses every frame: every attempt lands in
  // transport_failures (not drops), and the backoff schedule is
  // identical to the drop path.
  testing::CollectorSink sink;
  sink.refuse_all = true;
  common::FakeClock clock;
  ResilientChannelConfig config;
  config.max_attempts = 3;
  config.backoff_base = std::chrono::microseconds(200);
  config.sleep_on_backoff = true;
  config.clock = &clock;
  config.transport = &sink;
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(make_report(0, 3));
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(sink.frames.size(), 3u);
  const ResilientChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transport_failures, 3u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.reports_abandoned, 1u);
  ASSERT_EQ(clock.sleep_count(), 3u);
  EXPECT_EQ(clock.elapsed(), std::chrono::microseconds(200 * 7));
  EXPECT_TRUE(sink.reports.empty());
}

TEST(ResilientChannel, BackoffLadderIsClampedAtTheCap) {
  // Without jitter the ladder is min(base * 2^i, cap) at every retry:
  // 70 attempts run far past the point where an unclamped base * 2^i
  // sleeps for days, overflows int64 microseconds, or shifts by 64+.
  testing::CollectorSink sink;
  sink.refuse_all = true;
  common::FakeClock clock;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.max_attempts = 70;
  config.backoff_base = std::chrono::microseconds(1'000);
  config.backoff_cap = std::chrono::microseconds(1'000'000);
  config.jitter = false;
  config.sleep_on_backoff = true;
  config.clock = &clock;
  ResilientChannel channel(config);

  EXPECT_FALSE(channel.send(make_report(0, 2)).delivered);
  ASSERT_EQ(clock.sleep_count(), 70u);
  std::chrono::microseconds expected = config.backoff_base;
  std::uint64_t total_us = 0;
  for (std::size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(clock.sleeps()[i], expected) << "retry " << i;
    total_us += static_cast<std::uint64_t>(expected.count());
    expected = std::min(expected * 2, config.backoff_cap);
  }
  EXPECT_EQ(channel.stats().backoff_us, total_us);
}

TEST(ResilientChannel, CorruptedFrameIsLostAtTheCollectorNotRetried) {
  // What TCP guarantees: the corrupted frame leaves the host, so the
  // channel counts the send as delivered after one attempt. The
  // collector's CRC check refuses to decode it; the loss shows there,
  // as a resync or as bytes buffered for a frame that never completes.
  robustness::FaultPlan plan = site_schedule(
      "channel.corrupt", robustness::FaultKind::kCorrupt, {0});
  robustness::FaultInjector faults(plan);
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.faults = &faults;
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(make_report(3, 6));
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_TRUE(sink.reports.empty());
  EXPECT_EQ(sink.decode_errors, 0u);
  EXPECT_TRUE(sink.resyncs > 0 || sink.buffered() > 0);
}

TEST(ResilientChannel, BudgetShedsSmallestFlowsExactly) {
  // Budget for the header plus three records: the survivors must be
  // exactly the three largest flows, in descending order.
  const core::Report report = make_report(0, 10);
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.bytes_per_interval = kHeaderBytes + 3 * kRecordBytes;
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(report);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.records_delivered, 3u);
  EXPECT_EQ(outcome.records_shed, 7u);
  EXPECT_EQ(channel.stats().records_shed, 7u);

  core::Report expected = report;
  core::sort_by_size(expected);
  ASSERT_EQ(sink.reports.size(), 1u);
  const core::Report& arrived = sink.reports[0].report;
  ASSERT_EQ(arrived.flows.size(), 3u);
  for (std::size_t i = 0; i < arrived.flows.size(); ++i) {
    EXPECT_EQ(arrived.flows[i].key, expected.flows[i].key) << i;
    EXPECT_EQ(arrived.flows[i].estimated_bytes,
              expected.flows[i].estimated_bytes);
  }
}

TEST(ResilientChannel, MovedInReportThatFitsShipsUnchanged) {
  // A report moved into send() that fits the budget with its trailer
  // arrives bit-identical to the sorted report, trailer included.
  const std::string metrics = "{\"interval\":4}";
  const core::Report report = make_report(4, 6);
  core::Report expected = report;
  core::sort_by_size(expected);
  expected.entries_used = 0;  // device-local, not on the wire
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.bytes_per_interval = encoded_size(report, metrics.size());
  ResilientChannel channel(config);

  core::Report moved = report;
  const DeliveryOutcome outcome = channel.send(std::move(moved), metrics);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.metrics_delivered);
  EXPECT_EQ(outcome.records_delivered, 6u);
  EXPECT_EQ(outcome.records_shed, 0u);
  ASSERT_EQ(sink.reports.size(), 1u);
  testing::expect_reports_equal(sink.reports[0].report, expected);
  EXPECT_EQ(sink.reports[0].metrics_json, metrics);
}

TEST(ResilientChannel, TrailerThatDoesNotFitIsTheOnlyThingDropped) {
  const std::string metrics(64, 'm');
  const core::Report report = make_report(5, 6);
  core::Report expected = report;
  core::sort_by_size(expected);
  expected.entries_used = 0;
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.bytes_per_interval = encoded_size(report) + metrics.size();
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(report, metrics);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_FALSE(outcome.metrics_delivered);
  EXPECT_EQ(outcome.records_delivered, 6u);
  EXPECT_EQ(outcome.records_shed, 0u);
  ASSERT_EQ(sink.reports.size(), 1u);
  testing::expect_reports_equal(sink.reports[0].report, expected);
  EXPECT_TRUE(sink.reports[0].metrics_json.empty());
}

TEST(ResilientChannel, OverBudgetReportKeepsLargestPrefixWithExactStats) {
  // Over budget, moved in unsorted: the largest-first prefix ships, the
  // trailer is decided on the offered report (so it is dropped even
  // though it would fit beside the surviving prefix), and
  // ChannelStats counts the offered and the delivered side exactly.
  const std::string metrics = "{}";
  const std::size_t trailer = kTrailerLengthBytes + metrics.size();
  const core::Report report = make_report(6, 10);
  core::Report expected = report;
  core::sort_by_size(expected);
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.bytes_per_interval = kHeaderBytes + 4 * kRecordBytes + trailer;
  ResilientChannel channel(config);

  core::Report moved = report;
  const DeliveryOutcome outcome = channel.send(std::move(moved), metrics);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_FALSE(outcome.metrics_delivered);
  EXPECT_EQ(outcome.records_delivered, 4u);
  EXPECT_EQ(outcome.records_shed, 6u);
  EXPECT_EQ(channel.stats().records_shed, 6u);
  const ChannelStats& shaped = channel.channel_stats();
  EXPECT_EQ(shaped.reports_offered, 1u);
  EXPECT_EQ(shaped.records_offered, 10u);
  EXPECT_EQ(shaped.records_delivered, 4u);
  EXPECT_EQ(shaped.bytes_offered, encoded_size(report, metrics.size()));
  EXPECT_EQ(shaped.bytes_delivered, kHeaderBytes + 4 * kRecordBytes);

  ASSERT_EQ(sink.reports.size(), 1u);
  const core::Report& arrived = sink.reports[0].report;
  ASSERT_EQ(arrived.flows.size(), 4u);
  for (std::size_t i = 0; i < arrived.flows.size(); ++i) {
    EXPECT_EQ(arrived.flows[i].key, expected.flows[i].key) << i;
    EXPECT_EQ(arrived.flows[i].estimated_bytes,
              expected.flows[i].estimated_bytes);
  }
  EXPECT_TRUE(sink.reports[0].metrics_json.empty());
}

TEST(ResilientChannel, TelemetryCountsEveryFailurePath) {
  telemetry::MetricsRegistry registry;
  robustness::FaultPlan plan =
      site_schedule("channel.drop", robustness::FaultKind::kDrop, {0});
  robustness::FaultInjector faults(plan);
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.faults = &faults;
  config.metrics = &registry;
  ResilientChannel channel(config);

  (void)channel.send(make_report(0, 2));
  EXPECT_EQ(registry.counter("nd_channel_drops_total").value(), 1u);
  EXPECT_EQ(registry.counter("nd_channel_retries_total").value(), 1u);
  EXPECT_EQ(registry.counter("nd_channel_abandoned_total").value(), 0u);
}

TEST(ResilientChannel, EmptyReportDeliversCleanly) {
  testing::CollectorSink sink;
  ResilientChannelConfig config;
  config.transport = &sink;
  ResilientChannel channel(config);
  core::Report report;
  report.interval = 9;
  report.threshold = 1'000;
  const DeliveryOutcome outcome = channel.send(report);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.records_delivered, 0u);
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].report.interval, 9u);
}

/// Replicate the decorrelated-jitter draw with a parallel Rng seeded
/// identically: delay_i = base + uniform(min(cap, 3 * prev_delay) -
/// base + 1), prev_0 = base, prev carried across sends.
std::vector<std::chrono::microseconds> expected_jitter_schedule(
    std::uint64_t seed, std::int64_t base_us, std::int64_t cap_us,
    std::size_t count) {
  common::Rng rng(seed);
  std::vector<std::chrono::microseconds> schedule;
  std::int64_t prev = base_us;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t upper = std::min<std::int64_t>(cap_us, prev * 3);
    const std::uint64_t span =
        upper > base_us ? static_cast<std::uint64_t>(upper - base_us) + 1
                        : 1;
    const std::int64_t delay =
        base_us + static_cast<std::int64_t>(rng.uniform(span));
    schedule.emplace_back(delay);
    prev = delay;
  }
  return schedule;
}

TEST(ResilientChannel, JitterBackoffMatchesDecorrelatedScheduleExactly) {
  // Jitter is opt-in: the default contract stays the deterministic
  // exponential ladder the tests above pin.
  EXPECT_FALSE(ResilientChannelConfig{}.jitter);

  testing::CollectorSink sink;
  sink.refuse_all = true;
  common::FakeClock clock;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.max_attempts = 6;
  config.backoff_base = std::chrono::microseconds(1'000);
  config.backoff_cap = std::chrono::microseconds(2'500);
  config.jitter = true;
  config.jitter_seed = 42;
  config.sleep_on_backoff = true;
  config.clock = &clock;
  ResilientChannel channel(config);

  EXPECT_FALSE(channel.send(make_report(0, 2)).delivered);

  const std::vector<std::chrono::microseconds> expected =
      expected_jitter_schedule(42, 1'000, 2'500, 6);
  ASSERT_EQ(clock.sleep_count(), 6u);
  std::uint64_t total_us = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(clock.sleeps()[i], expected[i]) << "retry " << i;
    // Every jittered delay stays inside [base, cap].
    EXPECT_GE(clock.sleeps()[i], std::chrono::microseconds(1'000));
    EXPECT_LE(clock.sleeps()[i], std::chrono::microseconds(2'500));
    total_us += static_cast<std::uint64_t>(expected[i].count());
  }
  EXPECT_EQ(channel.stats().backoff_us, total_us);
}

TEST(ResilientChannel, JitterStateCarriesAcrossSends) {
  // The previous delay feeds the next draw *across* send() calls: a
  // fleet spread out by a long outage stays spread out, instead of
  // re-synchronizing at base on every report. The replicated schedule
  // below is continuous over both sends — it only matches if
  // prev_delay persists (a per-send reset would clamp draw 3's upper
  // bound back to 3 * base).
  testing::CollectorSink sink;
  sink.refuse_all = true;
  common::FakeClock clock;
  ResilientChannelConfig config;
  config.transport = &sink;
  config.max_attempts = 3;
  config.backoff_base = std::chrono::microseconds(500);
  config.backoff_cap = std::chrono::microseconds(100'000);
  config.jitter = true;
  config.jitter_seed = 7;
  config.sleep_on_backoff = true;
  config.clock = &clock;
  ResilientChannel channel(config);

  EXPECT_FALSE(channel.send(make_report(0, 2)).delivered);
  EXPECT_FALSE(channel.send(make_report(1, 2)).delivered);

  const std::vector<std::chrono::microseconds> expected =
      expected_jitter_schedule(7, 500, 100'000, 6);
  ASSERT_EQ(clock.sleep_count(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(clock.sleeps()[i], expected[i]) << "retry " << i;
  }
}

}  // namespace
}  // namespace nd::reporting
