// FleetAggregator semantics: cumulative-in/delta-out counter tracking
// (including the device-restart reset), per-device gauge mirrors with a
// max-rollup fleet view, histogram bucket/sum merging, and the device
// label ownership rules — all through the same JSON-lines trailer
// encoding the collector ingests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "telemetry/aggregate.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace nd::telemetry {
namespace {

/// Build a device-side snapshot the way a member does: fill a registry,
/// snapshot, and round-trip through the v3 trailer encoding so the
/// aggregator sees exactly what a wire trailer carries.
Snapshot through_trailer(const MetricsRegistry& registry,
                         std::uint64_t interval) {
  return from_json_line(to_json_line(registry.snapshot(interval)));
}

Labels device_labels(const std::string& id) {
  return Labels{{"device", id}};
}

TEST(FleetAggregator, CountersSumAcrossDevicesAsDeltas) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);

  MetricsRegistry member1;
  member1.counter("nd_session_packets_total").add(5);
  aggregator.ingest(1, through_trailer(member1, 0));
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("1"))
                .value(),
            5u);
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("fleet"))
                .value(),
            5u);

  // Second interval: cumulative 8 arrives, only the delta of 3 lands.
  member1.counter("nd_session_packets_total").add(3);
  aggregator.ingest(1, through_trailer(member1, 1));
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("1"))
                .value(),
            8u);

  MetricsRegistry member2;
  member2.counter("nd_session_packets_total").add(4);
  aggregator.ingest(2, through_trailer(member2, 1));
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("2"))
                .value(),
            4u);
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("fleet"))
                .value(),
            12u);
  EXPECT_EQ(aggregator.devices_seen(), 2u);
}

TEST(FleetAggregator, BackwardsCounterMeansRestartAndReAddsFromZero) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);

  MetricsRegistry before;
  before.counter("nd_session_packets_total").add(8);
  aggregator.ingest(1, through_trailer(before, 0));

  // The device restarts with a fresh registry: cumulative drops to 2.
  MetricsRegistry after;
  after.counter("nd_session_packets_total").add(2);
  aggregator.ingest(1, through_trailer(after, 1));

  // Rollups stay monotonic: 8 from the first life + 2 from the second.
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("1"))
                .value(),
            10u);
  EXPECT_EQ(target.counter("nd_session_packets_total",
                           device_labels("fleet"))
                .value(),
            10u);
}

TEST(FleetAggregator, ZeroDeltaCountersStillRegisterForTheScrape) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);
  MetricsRegistry member;
  (void)member.counter("nd_session_unclassified_total");
  aggregator.ingest(3, through_trailer(member, 0));
  const Snapshot snapshot = target.snapshot();
  EXPECT_NE(snapshot.find("nd_session_unclassified_total",
                          device_labels("3")),
            nullptr);
  EXPECT_NE(snapshot.find("nd_session_unclassified_total",
                          device_labels("fleet")),
            nullptr);
}

TEST(FleetAggregator, GaugesTrackLatestPerDeviceAndMaxAcrossFleet) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);

  MetricsRegistry member1;
  member1.gauge("nd_flowmem_occupancy").set(0.4);
  aggregator.ingest(1, through_trailer(member1, 0));
  MetricsRegistry member2;
  member2.gauge("nd_flowmem_occupancy").set(0.9);
  aggregator.ingest(2, through_trailer(member2, 0));

  EXPECT_DOUBLE_EQ(
      target.gauge("nd_flowmem_occupancy", device_labels("1")).value(),
      0.4);
  EXPECT_DOUBLE_EQ(
      target.gauge("nd_flowmem_occupancy", device_labels("2")).value(),
      0.9);
  EXPECT_DOUBLE_EQ(
      target.gauge("nd_flowmem_occupancy", device_labels("fleet"))
          .value(),
      0.9);

  // The worst member improves; the fleet view must follow back down.
  member2.gauge("nd_flowmem_occupancy").set(0.5);
  aggregator.ingest(2, through_trailer(member2, 1));
  EXPECT_DOUBLE_EQ(
      target.gauge("nd_flowmem_occupancy", device_labels("fleet"))
          .value(),
      0.5);
}

TEST(FleetAggregator, HistogramsMergeBucketsAndSumsAsDeltas) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);

  MetricsRegistry member;
  member.histogram("nd_shard_merge_ns").record(6);   // bucket [4,7]
  member.histogram("nd_shard_merge_ns").record(100);  // bucket [64,127]
  aggregator.ingest(1, through_trailer(member, 0));

  Histogram& mine =
      target.histogram("nd_shard_merge_ns", device_labels("1"));
  EXPECT_EQ(mine.count(), 2u);
  EXPECT_EQ(mine.sum(), 106u);
  EXPECT_EQ(mine.bucket_count(Histogram::bucket_of_bound(7)), 1u);
  EXPECT_EQ(mine.bucket_count(Histogram::bucket_of_bound(127)), 1u);

  // Next interval adds one more observation; only the delta merges.
  member.histogram("nd_shard_merge_ns").record(6);
  aggregator.ingest(1, through_trailer(member, 1));
  EXPECT_EQ(mine.count(), 3u);
  EXPECT_EQ(mine.sum(), 112u);
  EXPECT_EQ(
      target.histogram("nd_shard_merge_ns", device_labels("fleet"))
          .count(),
      3u);
}

TEST(FleetAggregator, PreservesOtherLabelsAndOwnsTheDeviceLabel) {
  MetricsRegistry target;
  FleetAggregator aggregator(target);

  MetricsRegistry member;
  // The member already carries shard labels — and, adversarially, a
  // device label of its own; the aggregator owns that dimension.
  member
      .counter("nd_flowmem_inserts_total",
               Labels{{"device", "stale"}, {"shard", "2"}})
      .add(3);
  aggregator.ingest(7, through_trailer(member, 0));

  const Snapshot snapshot = target.snapshot();
  EXPECT_NE(snapshot.find("nd_flowmem_inserts_total",
                          Labels{{"device", "7"}, {"shard", "2"}}),
            nullptr);
  EXPECT_NE(snapshot.find("nd_flowmem_inserts_total",
                          Labels{{"device", "fleet"}, {"shard", "2"}}),
            nullptr);
  for (const Snapshot::Sample& sample : snapshot.samples) {
    for (const auto& [key, value] : sample.labels) {
      if (key == "device") {
        EXPECT_NE(value, "stale");
      }
    }
  }
}

}  // namespace
}  // namespace nd::telemetry
