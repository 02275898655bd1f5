// Pipeline instrumentation tests: the counters the devices export match
// observable device behavior, device series advance only at interval
// close and then by exactly the interval's tallies, per-shard tallies
// agree with the ShardStatus annotations, interval-aligned snapshots
// land once per interval, and — the contract the differential suite
// depends on — telemetry never changes a single reported byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "../support/report_testing.hpp"
#include "baseline/exact_oracle.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "eval/metrics.hpp"
#include "hash/hash.hpp"
#include "telemetry/metrics.hpp"
#include "trace/presets.hpp"

namespace nd::telemetry {
namespace {

using nd::testing::classify_trace;
using nd::testing::expect_reports_equal;
using nd::testing::observe_all;

trace::TraceConfig small_trace(std::uint64_t seed = 11) {
  trace::TraceConfig config;
  config.flow_count = 400;
  config.bytes_per_interval = 2'000'000;
  config.num_intervals = 4;
  config.seed = seed;
  return config;
}

core::SampleAndHoldConfig sah_config(MetricsRegistry* metrics = nullptr) {
  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 256;
  config.threshold = 40'000;
  config.oversampling = 5.0;
  config.seed = 7;
  config.metrics = metrics;
  return config;
}

core::MultistageFilterConfig filter_config(
    MetricsRegistry* metrics = nullptr) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 128;
  config.depth = 3;
  config.buckets_per_stage = 64;
  config.threshold = 40'000;
  config.seed = 9;
  config.metrics = metrics;
  return config;
}

/// True when `sample` carries every (key, value) pair of `subset`.
bool has_labels(const Snapshot::Sample& sample, const Labels& subset) {
  return std::all_of(subset.begin(), subset.end(), [&](const auto& pair) {
    return std::find(sample.labels.begin(), sample.labels.end(), pair) !=
           sample.labels.end();
  });
}

/// Sum of counter `name` over every series carrying `subset`.
std::uint64_t counter_sum(const Snapshot& snapshot, const std::string& name,
                          const Labels& subset = {}) {
  std::uint64_t total = 0;
  for (const Snapshot::Sample& sample : snapshot.samples) {
    if (sample.name == name && has_labels(sample, subset)) {
      total += sample.counter_value;
    }
  }
  return total;
}

/// Histogram `name` under exactly `labels` as upper bound -> count.
std::map<std::uint64_t, std::uint64_t> histogram_buckets(
    const Snapshot& snapshot, const std::string& name, const Labels& labels) {
  std::map<std::uint64_t, std::uint64_t> buckets;
  if (const auto* sample = snapshot.find(name, labels)) {
    for (const auto& [bound, count] : sample->histogram.buckets) {
      buckets[bound] = count;
    }
  }
  return buckets;
}

/// Every series a device owns (those with a device= label) holds the
/// same value in both snapshots.
void expect_device_series_unchanged(const Snapshot& before,
                                    const Snapshot& after) {
  ASSERT_EQ(before.samples.size(), after.samples.size());
  for (std::size_t i = 0; i < before.samples.size(); ++i) {
    const Snapshot::Sample& a = before.samples[i];
    const Snapshot::Sample& b = after.samples[i];
    ASSERT_EQ(a.name, b.name);
    ASSERT_EQ(a.labels, b.labels);
    const bool device_series =
        std::any_of(a.labels.begin(), a.labels.end(),
                    [](const auto& pair) { return pair.first == "device"; });
    if (!device_series) continue;
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.counter_value, b.counter_value);
    EXPECT_EQ(a.gauge_value, b.gauge_value);
    EXPECT_EQ(a.histogram.sum, b.histogram.sum);
    EXPECT_EQ(a.histogram.buckets, b.histogram.buckets);
  }
}

/// The per-interval packet tallies a device should publish, counted by
/// the test from the packets it feeds.
struct IntervalTally {
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  std::map<std::uint64_t, std::uint64_t> size_buckets;

  void add(std::uint32_t packet_bytes) {
    ++packets;
    bytes += packet_bytes;
    ++size_buckets[Histogram::upper_bound(std::bit_width(packet_bytes))];
  }
};

/// `after` advanced the device series under `labels` by exactly
/// `tally` since `before`.
void expect_published(const Snapshot& before, const Snapshot& after,
                      const Labels& labels, const IntervalTally& tally) {
  const auto delta = [&](const std::string& name) {
    return counter_sum(after, name, labels) -
           counter_sum(before, name, labels);
  };
  EXPECT_EQ(delta("nd_device_packets_total"), tally.packets);
  EXPECT_EQ(delta("nd_device_bytes_total"), tally.bytes);
  const auto* hist_before = before.find("nd_device_packet_size_bytes", labels);
  const auto* hist_after = after.find("nd_device_packet_size_bytes", labels);
  ASSERT_NE(hist_before, nullptr);
  ASSERT_NE(hist_after, nullptr);
  EXPECT_EQ(hist_after->histogram.sum - hist_before->histogram.sum,
            tally.bytes);
  std::map<std::uint64_t, std::uint64_t> buckets =
      histogram_buckets(after, "nd_device_packet_size_bytes", labels);
  for (const auto& [bound, count] :
       histogram_buckets(before, "nd_device_packet_size_bytes", labels)) {
    buckets[bound] -= count;
    if (buckets[bound] == 0) buckets.erase(bound);
  }
  EXPECT_EQ(buckets, tally.size_buckets);
  EXPECT_EQ(delta("nd_device_intervals_total"), 1u);
}

TEST(DeviceInstruments, SampleAndHoldCountersMatchBehavior) {
  MetricsRegistry registry;
  core::SampleAndHold device(sah_config(&registry));

  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    for (const auto& packet : interval) {
      device.observe(packet.key, packet.bytes);
      ++packets;
      bytes += packet.bytes;
    }
    (void)device.end_interval();
  }

  const Snapshot snapshot = registry.snapshot();
  const Labels device_label{{"device", "sample-and-hold"}};
  const auto* packet_sample =
      snapshot.find("nd_device_packets_total", device_label);
  ASSERT_NE(packet_sample, nullptr);
  EXPECT_EQ(packet_sample->counter_value, packets);
  EXPECT_EQ(snapshot.find("nd_device_bytes_total", device_label)
                ->counter_value,
            bytes);
  EXPECT_EQ(snapshot.find("nd_device_intervals_total", device_label)
                ->counter_value,
            4u);
  // The packet-size histogram saw every packet.
  EXPECT_EQ(snapshot.find("nd_device_packet_size_bytes", device_label)
                ->histogram.count,
            packets);
  EXPECT_EQ(snapshot.find("nd_device_packet_size_bytes", device_label)
                ->histogram.sum,
            bytes);
  // Every flow in flow memory got there via a counted insert, and the
  // occupancy gauge reflects the post-interval state.
  EXPECT_GT(snapshot.find("nd_flowmem_inserts_total", device_label)
                ->counter_value,
            0u);
  const double occupancy =
      snapshot.find("nd_flowmem_occupancy", device_label)->gauge_value;
  EXPECT_GE(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
  EXPECT_DOUBLE_EQ(
      snapshot.find("nd_device_threshold", device_label)->gauge_value,
      40'000.0);
}

TEST(DeviceInstruments, MultistageStagePassCountsAreMonotone) {
  MetricsRegistry registry;
  core::MultistageFilter device(filter_config(&registry));
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    observe_all(device, interval);
    (void)device.end_interval();
  }

  const Snapshot snapshot = registry.snapshot();
  // Parallel multistage: later stages only matter for packets that pass
  // earlier ones in the serial variant, but stage-pass events are
  // counted per stage here; every stage must have seen some passes and
  // the counters must exist for the configured depth only.
  std::uint64_t passes = 0;
  for (std::uint32_t d = 0; d < 3; ++d) {
    const auto* sample = snapshot.find(
        "nd_filter_stage_pass_total",
        {{"device", "multistage-filter"}, {"stage", std::to_string(d)}});
    ASSERT_NE(sample, nullptr) << "stage " << d;
    passes += sample->counter_value;
  }
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(snapshot.find(
                "nd_filter_stage_pass_total",
                {{"device", "multistage-filter"}, {"stage", "3"}}),
            nullptr);
  ASSERT_NE(snapshot.find("nd_filter_shielded_total",
                          {{"device", "multistage-filter"}}),
            nullptr);
}

TEST(DeviceInstruments, TelemetryNeverChangesReports) {
  // The differential contract: telemetry only observes. Instrumented
  // and bare devices built from identical configs must report
  // bit-identically — including the RNG-driven sample-and-hold.
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());

  MetricsRegistry registry;
  core::SampleAndHold sah_on(sah_config(&registry));
  core::SampleAndHold sah_off(sah_config());
  core::MultistageFilter filter_on(filter_config(&registry));
  core::MultistageFilter filter_off(filter_config());
  auto serial_on = filter_config(&registry);
  serial_on.serial = true;
  auto serial_off = filter_config();
  serial_off.serial = true;
  core::MultistageFilter sfilter_on(serial_on);
  core::MultistageFilter sfilter_off(serial_off);
  // The plain (non-conservative) parallel filter runs the fused
  // min-and-increment loop, which also tallies the stage passes.
  auto plain_on = filter_config(&registry);
  plain_on.conservative_update = false;
  auto plain_off = filter_config();
  plain_off.conservative_update = false;
  core::MultistageFilter pfilter_on(plain_on);
  core::MultistageFilter pfilter_off(plain_off);

  for (const auto& interval : intervals) {
    observe_all(sah_on, interval);
    observe_all(sah_off, interval);
    expect_reports_equal(sah_on.end_interval(), sah_off.end_interval());
    observe_all(filter_on, interval);
    observe_all(filter_off, interval);
    expect_reports_equal(filter_on.end_interval(),
                         filter_off.end_interval());
    observe_all(sfilter_on, interval);
    observe_all(sfilter_off, interval);
    expect_reports_equal(sfilter_on.end_interval(),
                         sfilter_off.end_interval());
    observe_all(pfilter_on, interval);
    observe_all(pfilter_off, interval);
    expect_reports_equal(pfilter_on.end_interval(),
                         pfilter_off.end_interval());
  }
  EXPECT_EQ(sah_on.memory_accesses(), sah_off.memory_accesses());
  EXPECT_EQ(filter_on.memory_accesses(), filter_off.memory_accesses());
  EXPECT_EQ(sfilter_on.memory_accesses(), sfilter_off.memory_accesses());
  EXPECT_EQ(pfilter_on.memory_accesses(), pfilter_off.memory_accesses());
}

TEST(DeviceInstruments, SampleAndHoldSeriesAdvanceOnlyAtIntervalClose) {
  MetricsRegistry registry;
  auto config = sah_config(&registry);
  // p = min(1, O/T) = 1: every packet that misses the flow memory is
  // sampled, so each packet is exactly one hit, insert or drop; the
  // small memory makes some of them drops.
  config.threshold = 1;
  config.flow_memory_entries = 64;
  core::SampleAndHold device(config);
  const Labels labels{{"device", "sample-and-hold"}};
  const auto counter = [&labels](const Snapshot& snapshot,
                                 const std::string& name) {
    return counter_sum(snapshot, name, labels);
  };

  Snapshot closed = registry.snapshot();
  std::uint64_t drops_before = 0;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    IntervalTally tally;
    for (const auto& packet : interval) {
      device.observe(packet.key, packet.bytes);
      tally.add(packet.bytes);
    }
    expect_device_series_unchanged(closed, registry.snapshot());

    const core::Report report = device.end_interval();
    const Snapshot now = registry.snapshot();
    expect_published(closed, now, labels, tally);
    // kClear: every entry held at the close was inserted this interval.
    const std::uint64_t inserts = counter(now, "nd_flowmem_inserts_total") -
                                  counter(closed, "nd_flowmem_inserts_total");
    const std::uint64_t drops =
        counter(now, "nd_flowmem_insert_drops_total") -
        counter(closed, "nd_flowmem_insert_drops_total");
    EXPECT_EQ(inserts, report.entries_used);
    EXPECT_EQ(drops, device.dropped_samples() - drops_before);
    EXPECT_EQ(counter(now, "nd_flowmem_hits_total") -
                  counter(closed, "nd_flowmem_hits_total"),
              tally.packets - inserts - drops);
    drops_before = device.dropped_samples();
    closed = now;
  }
  EXPECT_GT(device.dropped_samples(), 0u);
}

TEST(DeviceInstruments, MultistageSeriesAdvanceOnlyAtIntervalClose) {
  for (const bool conservative : {true, false}) {
    SCOPED_TRACE(conservative ? "conservative update" : "plain update");
    MetricsRegistry registry;
    auto config = filter_config(&registry);
    config.conservative_update = conservative;
    config.flow_memory_entries = 4096;  // every passing flow is admitted
    core::MultistageFilter device(config);
    const Labels labels{{"device", "multistage-filter"}};
    // The filter's stage hashes, rebuilt from its seed, so the test can
    // read the counters a packet will see before observing it.
    hash::HashFamily family(config.seed);
    std::vector<hash::StageHash> stages;
    for (std::uint32_t d = 0; d < config.depth; ++d) {
      stages.push_back(family.make_stage(config.buckets_per_stage));
    }
    const auto delta = [&labels](const Snapshot& before,
                                 const Snapshot& after,
                                 const std::string& name,
                                 Labels extra = {}) {
      Labels subset = labels;
      subset.insert(subset.end(), extra.begin(), extra.end());
      return counter_sum(after, name, subset) -
             counter_sum(before, name, subset);
    };

    Snapshot closed = registry.snapshot();
    for (const auto& interval : classify_trace(
             small_trace(), packet::FlowDefinition::five_tuple())) {
      IntervalTally tally;
      std::vector<std::uint64_t> passes(config.depth, 0);
      std::uint64_t shielded = 0;
      std::uint64_t admitted = 0;
      // kClear: the flow memory starts every interval empty.
      std::unordered_set<std::uint64_t> held;
      for (const auto& packet : interval) {
        tally.add(packet.bytes);
        if (held.count(packet.key.fingerprint()) != 0) {
          ++shielded;
        } else {
          common::ByteCount min_counter = ~common::ByteCount{0};
          for (std::uint32_t d = 0; d < config.depth; ++d) {
            const common::ByteCount counter =
                device.counter(d, stages[d].bucket(packet.key.fingerprint()));
            if (counter + packet.bytes >= config.threshold) ++passes[d];
            min_counter = std::min(min_counter, counter);
          }
          if (min_counter + packet.bytes >= config.threshold) {
            ++admitted;
            held.insert(packet.key.fingerprint());
          }
        }
        device.observe(packet.key, packet.bytes);
      }
      expect_device_series_unchanged(closed, registry.snapshot());

      (void)device.end_interval();
      const Snapshot now = registry.snapshot();
      expect_published(closed, now, labels, tally);
      EXPECT_EQ(delta(closed, now, "nd_flowmem_hits_total"), shielded);
      EXPECT_EQ(delta(closed, now, "nd_filter_shielded_total"), shielded);
      EXPECT_EQ(delta(closed, now, "nd_flowmem_inserts_total"), admitted);
      EXPECT_EQ(delta(closed, now, "nd_flowmem_insert_drops_total"), 0u);
      for (std::uint32_t d = 0; d < config.depth; ++d) {
        EXPECT_EQ(delta(closed, now, "nd_filter_stage_pass_total",
                        {{"stage", std::to_string(d)}}),
                  passes[d])
            << "stage " << d;
      }
      EXPECT_GT(admitted, 0u);
      closed = now;
    }
    EXPECT_EQ(device.dropped_passes(), 0u);
  }
}

TEST(ShardedInstruments, ParallelShardClosesPublishExactTallies) {
  MetricsRegistry registry;
  common::ThreadPool pool(2);
  core::ShardedDeviceConfig config;
  config.shards = 3;
  config.metrics = &registry;
  config.pool = &pool;
  core::ShardedDevice device(
      config, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = sah_config(&registry);
        inner.threshold = 1;  // p = 1, as in the unsharded test
        inner.flow_memory_entries = 64;
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::SampleAndHold>(inner);
      });

  Snapshot closed = registry.snapshot();
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    std::array<IntervalTally, 3> tallies;
    for (const auto& packet : interval) {
      tallies[device.shard_of(packet.key.fingerprint())].add(packet.bytes);
    }
    observe_all(device, interval);
    expect_device_series_unchanged(closed, registry.snapshot());

    // Shards 1 and 2 close (and publish) on pool workers.
    const core::Report report = device.end_interval();
    const Snapshot now = registry.snapshot();
    ASSERT_EQ(report.shards.size(), 3u);
    for (std::uint32_t s = 0; s < 3; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const Labels labels{{"device", "sample-and-hold"},
                          {"shard", std::to_string(s)}};
      expect_published(closed, now, labels, tallies[s]);
      EXPECT_EQ(report.shards[s].packets, tallies[s].packets);
      const auto delta = [&](const std::string& name) {
        return counter_sum(now, name, labels) -
               counter_sum(closed, name, labels);
      };
      EXPECT_EQ(delta("nd_flowmem_inserts_total"),
                report.shards[s].entries_used);
      EXPECT_EQ(delta("nd_flowmem_hits_total") +
                    delta("nd_flowmem_inserts_total") +
                    delta("nd_flowmem_insert_drops_total"),
                tallies[s].packets);
    }
    closed = now;
  }
}

TEST(ShardedInstruments, PerShardTalliesMatchShardStatus) {
  MetricsRegistry registry;
  core::ShardedDeviceConfig config;
  config.shards = 4;
  config.metrics = &registry;
  core::ShardedDevice device(
      config, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = filter_config(&registry);
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::MultistageFilter>(inner);
      });

  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  core::Report last;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    observe_all(device, interval);
    total_packets += interval.size();
    for (const auto& packet : interval) {
      total_bytes += packet.bytes;
    }
    last = device.end_interval();
  }

  // The ShardStatus annotations carry the last interval's tallies; the
  // telemetry counters carry the lifetime sums; both partition the
  // totals exactly.
  ASSERT_EQ(last.shards.size(), 4u);
  const Snapshot snapshot = registry.snapshot();
  std::uint64_t counted_packets = 0;
  std::uint64_t counted_bytes = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const Labels shard_label{{"shard", std::to_string(s)}};
    counted_packets +=
        snapshot.find("nd_shard_packets_total", shard_label)->counter_value;
    counted_bytes +=
        snapshot.find("nd_shard_bytes_total", shard_label)->counter_value;
  }
  EXPECT_EQ(counted_packets, total_packets);
  EXPECT_EQ(counted_bytes, total_bytes);
  std::uint64_t status_packets = 0;
  for (const auto& status : last.shards) {
    status_packets += status.packets;
  }
  // 4 intervals of identical synthesis mean the last interval carries
  // roughly a quarter of the traffic; exactness is per interval.
  EXPECT_GT(status_packets, 0u);
  EXPECT_LE(status_packets, total_packets);

  EXPECT_EQ(snapshot.find("nd_sharded_intervals_total")->counter_value, 4u);
  EXPECT_DOUBLE_EQ(snapshot.find("nd_sharded_effective_threshold")
                       ->gauge_value,
                   static_cast<double>(core::effective_threshold(last)));
  EXPECT_EQ(snapshot.find("nd_shard_merge_ns")->histogram.count, 4u);

  // And the eval-layer imbalance summary is consistent with the tallies.
  const eval::ShardUsageSummary summary = eval::summarize_shards(last);
  EXPECT_EQ(summary.total_packets, status_packets);
  EXPECT_GE(summary.packet_imbalance, 1.0);
  EXPECT_LT(summary.packet_imbalance, 4.0 + 1e-9);
  EXPECT_GE(summary.byte_imbalance, 1.0);
}

TEST(ShardedInstruments, TelemetryNeverChangesShardedReports) {
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  MetricsRegistry registry;
  common::ThreadPool pool(2);
  pool.attach_telemetry(&registry);

  core::ShardedDeviceConfig on;
  on.shards = 4;
  on.metrics = &registry;
  on.pool = &pool;
  core::ShardedDeviceConfig off;
  off.shards = 4;
  core::ShardedDevice device_on(
      on, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = filter_config(&registry);
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::MultistageFilter>(inner);
      });
  core::ShardedDevice device_off(off,
                                 [](std::uint32_t, std::uint64_t seed) {
                                   auto inner = filter_config();
                                   inner.seed = seed;
                                   return std::make_unique<
                                       core::MultistageFilter>(inner);
                                 });
  for (const auto& interval : intervals) {
    observe_all(device_on, interval);
    observe_all(device_off, interval);
    expect_reports_equal(device_on.end_interval(),
                         device_off.end_interval());
  }
  // The pool carried the fan-out and said so.
  EXPECT_GT(registry.snapshot().find("nd_pool_tasks_total")->counter_value,
            0u);
}

TEST(SessionInstruments, OneSnapshotLinePerClosedInterval) {
  constexpr common::TimestampNs kSecond = 1'000'000'000ULL;
  MetricsRegistry registry;

  core::MeasurementSession session(
      std::make_unique<baseline::ExactOracle>(),
      packet::FlowDefinition::destination_ip(),
      std::chrono::seconds(5));
  session.attach_telemetry(&registry);

  // The snapshot for an interval is taken once its report is drained,
  // the way the pipeline's report stage takes it.
  std::vector<Snapshot> snapshots;
  const auto take = [&](const std::vector<core::Report>& reports) {
    for (const core::Report& report : reports) {
      snapshots.push_back(registry.snapshot(report.interval));
    }
  };
  packet::PacketRecord packet;
  packet.src_ip = 1;
  packet.dst_ip = 7;
  packet.protocol = packet::IpProtocol::kUdp;
  packet.size_bytes = 100;
  for (const std::uint64_t second : {1u, 2u, 6u, 11u, 12u}) {
    packet.timestamp_ns = second * kSecond;
    session.observe(packet);
    take(session.drain_reports());
  }
  take(session.finish());

  // Intervals [0,5) [5,10) [10,15): three closes, three snapshots.
  EXPECT_EQ(session.intervals_closed(), 3u);
  ASSERT_EQ(snapshots.size(), 3u);
  for (std::uint64_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].find("nd_session_intervals_total")->counter_value,
              i + 1);
  }
  EXPECT_EQ(registry.snapshot().find("nd_session_packets_total")
                ->counter_value,
            5u);
}

TEST(SessionInstruments, DeviceSeriesMatchSessionAndShardTalliesAtEveryClose) {
  // Driven the way ndtm drives it: the snapshot for an interval is taken
  // after session.observe() returns, i.e. after the packet whose
  // timestamp closed the interval has been observed. That packet belongs
  // to the next interval and must not show in any series yet.
  MetricsRegistry registry;
  core::ShardedDeviceConfig config;
  config.shards = 3;
  config.metrics = &registry;
  auto device = std::make_unique<core::ShardedDevice>(
      config, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = sah_config(&registry);
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::SampleAndHold>(inner);
      });
  // The trace draws addresses from 10.0.0.0/11 (8,000 /24s); only
  // 10.0.0.0/12 has a route, so a packet with an endpoint above it gets
  // no AS pair.
  packet::AsResolver resolver;
  resolver.add_route({10U << 24, 12, 1});
  core::MeasurementSession session(std::move(device),
                                   packet::FlowDefinition::as_pair(resolver),
                                   std::chrono::seconds(5));
  session.attach_telemetry(&registry);

  std::uint64_t closes = 0;
  const auto check = [&registry, &closes](const core::Report& report) {
    SCOPED_TRACE("interval " + std::to_string(report.interval));
    const Snapshot snapshot = registry.snapshot(report.interval);
    const std::uint64_t device_packets =
        counter_sum(snapshot, "nd_device_packets_total");
    EXPECT_EQ(device_packets,
              counter_sum(snapshot, "nd_session_packets_total") -
                  counter_sum(snapshot, "nd_session_unclassified_total"));
    EXPECT_EQ(device_packets, counter_sum(snapshot, "nd_shard_packets_total"));
    EXPECT_EQ(counter_sum(snapshot, "nd_device_bytes_total"),
              counter_sum(snapshot, "nd_shard_bytes_total"));
    ++closes;
  };
  trace::TraceSynthesizer synthesizer(small_trace());
  for (;;) {
    const auto packets = synthesizer.next_interval();
    if (packets.empty()) break;
    for (const auto& packet : packets) {
      session.observe(packet);
      for (const core::Report& report : session.drain_reports()) {
        check(report);
      }
    }
  }
  for (const core::Report& report : session.finish()) {
    check(report);
  }
  EXPECT_EQ(closes, 4u);
  EXPECT_GT(session.packets_unclassified(), 0u);
}

}  // namespace
}  // namespace nd::telemetry
