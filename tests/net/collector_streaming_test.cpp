// The collector's streaming fleet merge: an interval is merged and
// handed to CollectorConfig::on_interval as soon as every known device
// has reported it or said bye, in ascending order, and the member
// copies are dropped. Copies that arrive after their interval merged
// are duplicates or late reports, a journal restart re-emits the same
// sequence, and without a sink merged_reports() keeps the whole-run
// meaning. The sink gets each merge encoded, as the export writes it.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "../support/report_testing.hpp"
#include "core/device.hpp"
#include "net/collector.hpp"
#include "net/transport.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "telemetry/metrics.hpp"

namespace nd::net {
namespace {

constexpr packet::FlowKeyKind kKind = packet::FlowKeyKind::kFiveTuple;
constexpr auto kHangGuard = std::chrono::milliseconds(30'000);

/// Device `device`'s report for `interval`: its flows carry the device
/// id in the source address, so a merge shows its member order.
core::Report member_report(std::uint32_t device,
                           common::IntervalIndex interval) {
  core::Report report;
  report.interval = interval;
  report.threshold = 50'000;
  for (std::uint32_t i = 0; i < 3; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000000 + (device << 8) + i, 0x0A0000FF,
        static_cast<std::uint16_t>(1000 + interval), 80,
        packet::IpProtocol::kTcp);
    flow.estimated_bytes = 300'000 - 10'000 * i - 1'000 * device;
    report.flows.push_back(flow);
  }
  return report;
}

/// One device's connection to the collector.
class Device {
 public:
  Device(std::uint16_t port, std::uint32_t id)
      : id_(id), transport_(TcpTransportConfig{.port = port, .device_id = id}) {}

  void send(common::IntervalIndex interval) {
    ASSERT_TRUE(transport_.send_frame(reporting::frame_payload(
        reporting::encode(member_report(id_, interval), kKind))))
        << "device " << id_ << " interval " << interval;
  }
  void bye(std::uint32_t intervals) {
    ASSERT_TRUE(transport_.send_bye(intervals)) << "device " << id_;
  }

 private:
  std::uint32_t id_;
  TcpTransport transport_;
};

/// One encoded merge on_interval handed over.
using Encoded = std::vector<std::uint8_t>;

/// Records what on_interval receives; the collector calls it from its
/// own thread (and from the constructor for replayed intervals).
class Sink {
 public:
  void operator()(std::span<const std::uint8_t> encoded) {
    const std::lock_guard<std::mutex> lock(mutex_);
    merges_.emplace_back(encoded.begin(), encoded.end());
    arrived_.notify_all();
  }
  /// Waits (bounded) until at least `count` merges arrived; returns
  /// everything received so far.
  std::vector<Encoded> wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait_for(lock, kHangGuard,
                      [&] { return merges_.size() >= count; });
    return merges_;
  }
  std::vector<Encoded> received() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return merges_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<Encoded> merges_;
};

CollectorConfig streaming_config(std::uint32_t devices, Sink* sink) {
  CollectorConfig config;
  config.expected_devices = devices;
  config.timeout = kHangGuard;
  if (sink != nullptr) {
    config.on_interval = [sink](std::span<const std::uint8_t> encoded) {
      (*sink)(encoded);
    };
  }
  return config;
}

/// Wait until the collector has taken in `count` report frames, kept
/// or not. A merge they complete follows in the same loop pass.
void wait_for_frames(const Collector& collector, std::uint64_t count) {
  for (int i = 0; i < 5000; ++i) {
    const CollectorStats stats = collector.stats();
    if (stats.reports_ingested + stats.duplicate_reports +
            stats.late_reports >=
        count) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "collector never saw " << count << " reports";
}

/// Give a merge that must not happen the chance to happen.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }

std::vector<common::IntervalIndex> intervals_of(
    const std::vector<Encoded>& merges) {
  std::vector<common::IntervalIndex> intervals;
  for (const Encoded& encoded : merges) {
    intervals.push_back(reporting::layout_of(encoded).interval);
  }
  return intervals;
}

/// What the wire delivers of a member report (the codec's view of it).
core::Report decoded_member(std::uint32_t device,
                            common::IntervalIndex interval) {
  return reporting::decode_full(
             reporting::encode(member_report(device, interval), kKind))
      .report;
}

/// The whole-run fleet merge of `devices` for `interval`.
core::Report expected_merge(const std::vector<std::uint32_t>& devices,
                            common::IntervalIndex interval) {
  std::vector<core::Report> members;
  for (const std::uint32_t device : devices) {
    members.push_back(decoded_member(device, interval));
  }
  return core::merge_member_reports(interval, members);
}

void expect_same_merges(const std::vector<core::Report>& actual,
                        const std::vector<core::Report>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    testing::expect_reports_equal(actual[i], expected[i]);
    EXPECT_EQ(reporting::encode(actual[i], kKind),
              reporting::encode(expected[i], kKind))
        << "merge " << i;
  }
}

/// The sink's merges are the export records: each expected merge
/// sorted largest-first and encoded.
void expect_same_merges(const std::vector<Encoded>& actual,
                        std::vector<core::Report> expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    core::sort_by_size(expected[i]);
    EXPECT_EQ(actual[i], reporting::encode(expected[i], kKind))
        << "merge " << i;
  }
}

TEST(CollectorStreaming, OneDeviceEmitsEachIntervalBeforeTheNextIsSent) {
  Sink sink;
  Collector collector(streaming_config(1, &sink));
  collector.start();
  Device device(collector.port(), 0);
  for (common::IntervalIndex interval = 0; interval < 4; ++interval) {
    device.send(interval);
    const std::vector<Encoded> received = sink.wait_for(interval + 1);
    ASSERT_EQ(received.size(), interval + 1u);
    expect_same_merges({received.back()}, {expected_merge({0}, interval)});
  }
  device.bye(4);
  ASSERT_TRUE(collector.wait());
  EXPECT_EQ(sink.received().size(), 4u);
  // The sink took every merge: nothing is left open or kept.
  EXPECT_TRUE(collector.merged_reports().empty());
}

TEST(CollectorStreaming, OutOfPhaseDevicesEmitOnlyWhatBothHaveInOrder) {
  Sink sink;
  Collector collector(streaming_config(2, &sink));
  collector.start();
  Device first(collector.port(), 0);
  Device second(collector.port(), 1);

  // Only one of two devices is known: nothing can be complete yet.
  for (common::IntervalIndex interval = 0; interval < 3; ++interval) {
    first.send(interval);
  }
  wait_for_frames(collector, 3);
  settle();
  EXPECT_TRUE(sink.received().empty());

  // The lagging device delivers interval 0: exactly that one merges.
  second.send(0);
  EXPECT_EQ(intervals_of(sink.wait_for(1)),
            std::vector<common::IntervalIndex>{0});
  settle();
  EXPECT_EQ(sink.received().size(), 1u);

  // It catches up out of order: 2 waits behind 1, then both go, in
  // ascending order.
  second.send(2);
  wait_for_frames(collector, 5);
  settle();
  EXPECT_EQ(sink.received().size(), 1u);
  second.send(1);
  EXPECT_EQ(intervals_of(sink.wait_for(3)),
            (std::vector<common::IntervalIndex>{0, 1, 2}));

  first.bye(3);
  second.bye(3);
  ASSERT_TRUE(collector.wait());
  expect_same_merges(sink.received(),
                     {expected_merge({0, 1}, 0), expected_merge({0, 1}, 1),
                      expected_merge({0, 1}, 2)});
  EXPECT_EQ(collector.stats().missing_intervals, 0u);
}

TEST(CollectorStreaming, ByeThatExcludesAnIntervalReleasesItWithoutTheMember) {
  Sink sink;
  Collector collector(streaming_config(2, &sink));
  collector.start();
  Device first(collector.port(), 0);
  Device second(collector.port(), 1);
  first.send(0);
  first.send(1);
  second.send(0);
  // The second device's capture ended after one interval: interval 1
  // cannot wait for it.
  second.bye(1);
  const std::vector<Encoded> received = sink.wait_for(2);
  expect_same_merges(received,
                     {expected_merge({0, 1}, 0), expected_merge({0}, 1)});
  first.bye(2);
  ASSERT_TRUE(collector.wait());
  EXPECT_EQ(sink.received().size(), 2u);
  EXPECT_EQ(collector.stats().missing_intervals, 0u);
}

TEST(CollectorStreaming, CopiesAfterEmissionAreDuplicatesOrLateNeverMerged) {
  telemetry::MetricsRegistry registry;
  Sink sink;
  CollectorConfig config = streaming_config(2, &sink);
  config.metrics = &registry;
  Collector collector(config);
  collector.start();
  Device first(collector.port(), 0);
  Device second(collector.port(), 1);
  first.send(0);
  second.bye(0);  // releases interval 0 without the second device
  ASSERT_EQ(sink.wait_for(1).size(), 1u);

  first.send(0);   // re-sent by the device that delivered it
  second.send(0);  // from the device whose bye released it
  wait_for_frames(collector, 3);
  first.bye(1);
  ASSERT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.reports_ingested, 1u);
  EXPECT_EQ(stats.duplicate_reports, 1u);
  EXPECT_EQ(stats.late_reports, 1u);
  EXPECT_EQ(registry.counter("nd_net_late_reports_total").value(), 1u);
  expect_same_merges(sink.received(), {expected_merge({0}, 0)});
  EXPECT_TRUE(collector.merged_reports().empty());
}

TEST(CollectorStreaming, MissingIntervalsAreCountedAtByeAndNamed) {
  telemetry::MetricsRegistry registry;
  Sink sink;
  CollectorConfig config = streaming_config(1, &sink);
  config.metrics = &registry;
  Collector collector(config);
  collector.start();
  Device device(collector.port(), 0);
  device.send(0);
  device.send(2);
  device.send(3);
  device.bye(6);  // intervals 1, 4 and 5 never arrived
  ASSERT_TRUE(collector.wait());

  EXPECT_EQ(collector.stats().missing_intervals, 3u);
  EXPECT_EQ(registry.counter("nd_net_missing_intervals_total").value(), 3u);
  const std::vector<IntervalGap> gaps = collector.gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0].device_id, 0u);
  EXPECT_EQ(gaps[0].first, 1u);
  EXPECT_EQ(gaps[0].last, 1u);
  EXPECT_EQ(gaps[1].first, 4u);
  EXPECT_EQ(gaps[1].last, 5u);
  const std::string status = collector.status_text();
  EXPECT_NE(status.find("device 0: epoch 0, 3 reports, bye, missing "
                        "intervals 1,4-5"),
            std::string::npos)
      << status;
  // Interval 0 streamed; 2 and 3 sat behind the gap at 1 until the end.
  EXPECT_EQ(intervals_of(sink.received()),
            std::vector<common::IntervalIndex>{0});
  expect_same_merges(collector.merged_reports(),
                     {expected_merge({0}, 2), expected_merge({0}, 3)});
}

TEST(CollectorStreaming, JournalRestartEmitsTheSameSequenceAsAnUninterruptedRun) {
  const std::string journal =
      (std::filesystem::path(::testing::TempDir()) /
       "nd_collector_streaming.wal")
          .string();
  std::filesystem::remove(journal);

  // Incarnation 1 merges intervals 0 and 1, holds device 0's interval
  // 2, and dies without a bye.
  Sink before_crash;
  {
    CollectorConfig config = streaming_config(2, &before_crash);
    config.journal_path = journal;
    Collector collector(config);
    collector.start();
    Device first(collector.port(), 0);
    Device second(collector.port(), 1);
    for (common::IntervalIndex interval = 0; interval < 3; ++interval) {
      first.send(interval);
    }
    second.send(0);
    second.send(1);
    ASSERT_EQ(before_crash.wait_for(2).size(), 2u);
    collector.stop();
    EXPECT_FALSE(collector.wait());
  }

  // Incarnation 2 re-emits 0 and 1 from the journal alone, before it
  // accepts a connection; the devices then re-send everything.
  Sink restarted_sink;
  CollectorConfig config = streaming_config(2, &restarted_sink);
  config.journal_path = journal;
  Collector restarted(config);
  EXPECT_EQ(restarted_sink.received().size(), 2u);
  restarted.start();
  {
    Device first(restarted.port(), 0);
    Device second(restarted.port(), 1);
    for (common::IntervalIndex interval = 0; interval < 3; ++interval) {
      first.send(interval);
      second.send(interval);
    }
    first.bye(3);
    second.bye(3);
  }
  ASSERT_TRUE(restarted.wait());
  EXPECT_EQ(restarted.stats().duplicate_reports, 5u);

  // The uninterrupted reference.
  Sink reference_sink;
  Collector reference(streaming_config(2, &reference_sink));
  reference.start();
  {
    Device first(reference.port(), 0);
    Device second(reference.port(), 1);
    for (common::IntervalIndex interval = 0; interval < 3; ++interval) {
      first.send(interval);
      second.send(interval);
    }
    first.bye(3);
    second.bye(3);
  }
  ASSERT_TRUE(reference.wait());

  const std::vector<Encoded> expected = reference_sink.received();
  ASSERT_EQ(intervals_of(expected),
            (std::vector<common::IntervalIndex>{0, 1, 2}));
  EXPECT_EQ(restarted_sink.received(), expected);
  EXPECT_EQ(before_crash.received(),
            (std::vector<Encoded>{expected[0], expected[1]}));
}

TEST(CollectorStreaming, WithoutASinkMergedReportsIsTheWholeRunMerge) {
  Collector collector(streaming_config(2, nullptr));
  collector.start();
  Device first(collector.port(), 0);
  Device second(collector.port(), 1);
  for (common::IntervalIndex interval = 0; interval < 3; ++interval) {
    first.send(interval);
  }
  // Interval 0 merges; 1 waits for the second device, 2 behind it.
  second.send(0);
  second.send(2);
  wait_for_frames(collector, 5);
  collector.stop();
  EXPECT_FALSE(collector.wait());

  expect_same_merges(collector.merged_reports(),
                     {expected_merge({0, 1}, 0), expected_merge({0}, 1),
                      expected_merge({0, 1}, 2)});
  // Still open, not consumed: asking again gives the same answer.
  EXPECT_EQ(collector.merged_reports().size(), 3u);
}

}  // namespace
}  // namespace nd::net
