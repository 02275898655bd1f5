// Per-shard adaptive thresholds in ShardedDevice: each replica runs a
// private ThresholdAdaptor on its own entries/capacity, so thresholds
// diverge on skewed traffic, operator overrides compose with adaptation
// through the baseline vector.
//
// Suite names start with "ShardedAdaptive" so tools/tsan_check.cmake's
// `-R "...|Sharded|..."` filter runs them under ThreadSanitizer.
#include "core/sharded_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../support/differential_harness.hpp"
#include "common/thread_pool.hpp"
#include "core/multistage_filter.hpp"
#include "trace/presets.hpp"

namespace nd::core {
namespace {

using nd::testing::DifferentialTrace;
using nd::testing::make_differential_trace;
using nd::testing::observe_all;

constexpr std::size_t kTotalEntries = 512;
constexpr std::uint32_t kTotalBuckets = 1024;
constexpr common::ByteCount kInitialThreshold = 50'000;

MultistageFilterConfig split_filter_config(std::uint32_t shards,
                                           std::uint64_t seed) {
  MultistageFilterConfig config;
  config.flow_memory_entries = kTotalEntries / shards;
  config.depth = 3;
  config.buckets_per_stage = kTotalBuckets / shards;
  config.threshold = kInitialThreshold;
  config.conservative_update = true;
  config.shielding = true;
  config.preserve = flowmem::PreservePolicy::kPreserve;
  config.seed = seed;
  return config;
}

ShardedDevice::Factory split_factory(std::uint32_t shards) {
  return [shards](std::uint32_t, std::uint64_t seed) {
    return std::make_unique<MultistageFilter>(split_filter_config(shards, seed));
  };
}

std::unique_ptr<ShardedDevice> make_adaptive(std::uint32_t shards,
                                             std::uint64_t seed = 1) {
  ShardedDeviceConfig config;
  config.shards = shards;
  config.seed = seed;
  config.adaptor = multistage_adaptor();
  return std::make_unique<ShardedDevice>(config, split_factory(shards));
}

/// Synthesizes a packet stream whose load is deliberately skewed toward
/// whichever shard a few chosen keys route to: a handful of elephant
/// keys all landing on one shard, plus uniform background flows.
std::vector<packet::ClassifiedPacket> skewed_interval(
    const ShardedDevice& device, std::uint32_t hot_shard) {
  std::vector<packet::ClassifiedPacket> packets;
  std::uint32_t found = 0;
  for (std::uint32_t ip = 1; found < 200; ++ip) {
    const auto key = packet::FlowKey::destination_ip(ip);
    if (device.shard_of(key.fingerprint()) != hot_shard) continue;
    ++found;
    // Every hot-shard flow is an elephant; it will demand entries there.
    for (int burst = 0; burst < 4; ++burst) {
      packets.push_back(packet::ClassifiedPacket{key, 30'000});
    }
  }
  for (std::uint32_t ip = 100'000; ip < 100'400; ++ip) {
    packets.push_back(packet::ClassifiedPacket{
        packet::FlowKey::destination_ip(ip), 2'000});
  }
  return packets;
}

TEST(ShardedAdaptive, ThresholdsDivergeOnSkewedTraffic) {
  const auto device = make_adaptive(4);
  ASSERT_TRUE(device->adaptive());
  const auto interval = skewed_interval(*device, 0);
  Report report;
  for (int i = 0; i < 12; ++i) {
    observe_all(*device, interval);
    report = device->end_interval();
  }
  ASSERT_EQ(report.shards.size(), 4u);
  // The flooded shard must have adapted its threshold above the idle
  // ones, and the merged report's threshold is the effective maximum.
  common::ByteCount max_threshold = 0;
  std::set<common::ByteCount> distinct;
  for (const ShardStatus& shard : report.shards) {
    distinct.insert(shard.threshold);
    max_threshold = std::max(max_threshold, shard.threshold);
  }
  EXPECT_GT(distinct.size(), 1u) << "thresholds stayed uniform";
  EXPECT_EQ(report.threshold, max_threshold);
  EXPECT_EQ(effective_threshold(report), max_threshold);
  EXPECT_GE(report.shards[0].threshold, report.shards[1].threshold);
  EXPECT_EQ(device->name(), "sharded-adaptive(multistage-filter)x4");
}

TEST(ShardedAdaptive, GlobalOverrideResetsBaselineAndAdaptors) {
  const auto device = make_adaptive(4);
  const auto interval = skewed_interval(*device, 0);
  for (int i = 0; i < 12; ++i) {
    observe_all(*device, interval);
    (void)device->end_interval();
  }
  ASSERT_FALSE(device->shard_adaptor(0).usage_history().empty());

  device->set_threshold(75'000);
  for (std::uint32_t s = 0; s < device->shard_count(); ++s) {
    EXPECT_EQ(device->shard(s).threshold(), 75'000u);
    EXPECT_EQ(device->baseline_thresholds()[s], 75'000u);
    // The adaptors restart from the override: no stale usage history,
    // no leftover patience credit from the pre-override regime.
    EXPECT_TRUE(device->shard_adaptor(s).usage_history().empty());
    EXPECT_EQ(device->shard_adaptor(s).intervals_since_increase(), 0);
  }
  EXPECT_EQ(device->threshold(), 75'000u);
}

TEST(ShardedAdaptive, UniformDeviceReportsInstantaneousShardUsage) {
  ShardedDeviceConfig config;
  config.shards = 4;
  ShardedDevice device(config, split_factory(4));
  EXPECT_FALSE(device.adaptive());
  const auto interval = skewed_interval(device, 1);
  observe_all(device, interval);
  const Report report = device.end_interval();
  ASSERT_EQ(report.shards.size(), 4u);
  for (const ShardStatus& shard : report.shards) {
    EXPECT_EQ(shard.threshold, kInitialThreshold);
    EXPECT_EQ(shard.next_threshold, kInitialThreshold);
    EXPECT_EQ(shard.capacity, kTotalEntries / 4);
    EXPECT_DOUBLE_EQ(shard.smoothed_usage,
                     static_cast<double>(shard.entries_used) /
                         static_cast<double>(shard.capacity));
  }
}

// ---------------------------------------------------------------------
// Satellite 3: shard-count sweep on the paper's IND and COS presets.
// For shards in {1, 2, 4, 8}, per-shard smoothed usage must converge
// into [target - 10pp, target + 5pp] and no true heavy hitter above the
// effective (max per-shard) threshold may be missed after warmup.
// ---------------------------------------------------------------------

constexpr std::uint32_t kSweepIntervals = 40;
constexpr std::uint32_t kSweepWarmup = 10;
constexpr std::size_t kSweepClosing = 5;
constexpr double kBandLo = 0.80;
constexpr double kBandHi = 0.95;
/// Sweep devices get a constant 256-entry budget *per shard*: the usage
/// granularity (1/capacity) and the flow-churn noise must stay well
/// below the band width at every shard count.
constexpr std::size_t kSweepShardEntries = 256;
constexpr std::uint32_t kSweepShardBuckets = 2048;

std::unique_ptr<ShardedDevice> make_sweep_device(std::uint32_t shards) {
  ShardedDeviceConfig config;
  config.shards = shards;
  config.seed = 1;
  config.adaptor = nd::testing::damped_multistage_adaptor();
  return std::make_unique<ShardedDevice>(
      config, [](std::uint32_t, std::uint64_t seed) {
        MultistageFilterConfig inner;
        inner.flow_memory_entries = kSweepShardEntries;
        inner.depth = 3;
        inner.buckets_per_stage = kSweepShardBuckets;
        inner.threshold = 50'000;
        inner.conservative_update = true;
        inner.shielding = true;
        inner.preserve = flowmem::PreservePolicy::kPreserve;
        inner.seed = seed;
        return std::make_unique<MultistageFilter>(inner);
      });
}

const DifferentialTrace& sweep_trace(const char* preset) {
  // Full-size presets: even 8-way sharding must leave each shard a flow
  // population several times its entry capacity — the adaptor needs a
  // dense size distribution around the equilibrium threshold to steer
  // usage with sub-band granularity.
  auto make = [](trace::TraceConfig config) {
    config.num_intervals = kSweepIntervals;
    return make_differential_trace(config,
                                   packet::FlowDefinition::five_tuple());
  };
  if (std::string_view(preset) == "ind") {
    static const DifferentialTrace trace = make(trace::Presets::ind());
    return trace;
  }
  static const DifferentialTrace trace = make(trace::Presets::cos());
  return trace;
}

void run_sweep(const char* preset) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::string(preset) + ", shards=" +
                 std::to_string(shards));
    const DifferentialTrace& trace = sweep_trace(preset);
    const auto device = make_sweep_device(shards);
    std::vector<Report> reports;
    std::size_t eligible = 0;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < trace.intervals.size(); ++i) {
      observe_all(*device, trace.intervals[i]);
      reports.push_back(device->end_interval());
      if (i + 1 < kSweepWarmup) continue;
      SCOPED_TRACE("interval " + std::to_string(i));
      ++eligible;
      // No heavy hitter above the effective threshold may be missed.
      // The deterministic guarantee assumes the flow memory did not
      // fill up (see any_shard_overflowed); adaptation keeps overflow
      // rare, and the vacuity check below keeps this from silently
      // skipping every interval.
      if (!nd::testing::any_shard_overflowed(reports.back())) {
        ++checked;
        nd::testing::expect_no_false_negatives(reports.back(),
                                               trace.truth[i]);
      }
    }
    EXPECT_GE(2 * checked, eligible)
        << "flow memory overflowed in most post-warmup intervals; the "
           "no-false-negative check barely ran";
    nd::testing::expect_mean_usage_in_band(reports, kSweepClosing, kBandLo,
                                           kBandHi);
  }
}

TEST(ShardedAdaptiveSweep, IndPresetConvergesAtEveryShardCount) {
  run_sweep("ind");
}

TEST(ShardedAdaptiveSweep, CosPresetConvergesAtEveryShardCount) {
  run_sweep("cos");
}

}  // namespace
}  // namespace nd::core
