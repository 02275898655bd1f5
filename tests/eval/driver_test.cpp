#include "eval/driver.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baseline/exact_oracle.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "trace/presets.hpp"

namespace nd::eval {
namespace {

trace::TraceConfig tiny_trace(std::uint64_t seed = 3) {
  auto config = trace::scaled(trace::Presets::cos(), 0.2);
  config.num_intervals = 5;
  config.seed = seed;
  return config;
}

TEST(Driver, OracleHasZeroError) {
  baseline::ExactOracle oracle;
  DriverOptions options;
  options.metric_threshold = 10'000;
  const auto result = run_single(oracle, tiny_trace(),
                                 packet::FlowDefinition::five_tuple(),
                                 options);
  EXPECT_DOUBLE_EQ(result.false_negative_fraction.value(), 0.0);
  EXPECT_DOUBLE_EQ(result.avg_error_over_threshold.value(), 0.0);
  EXPECT_GT(result.packets, 0u);
}

TEST(Driver, WarmupIntervalsExcluded) {
  baseline::ExactOracle oracle;
  DriverOptions options;
  options.metric_threshold = 10'000;
  options.warmup_intervals = 3;
  const auto result = run_single(oracle, tiny_trace(),
                                 packet::FlowDefinition::five_tuple(),
                                 options);
  // 5 intervals minus 3 warmup = 2 evaluated.
  EXPECT_EQ(result.entries_used.count, 2u);
}

TEST(Driver, MultipleDevicesSeeSamePackets) {
  baseline::ExactOracle a;
  baseline::ExactOracle b;
  Driver driver(packet::FlowDefinition::five_tuple(), DriverOptions{});
  driver.add_device("a", a);
  driver.add_device("b", b);
  trace::TraceSynthesizer synth(tiny_trace());
  driver.run(synth);
  const auto results = driver.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].packets, results[1].packets);
  EXPECT_EQ(results[0].label, "a");
}

TEST(Driver, GroupMetricsProducedWhenConfigured) {
  baseline::ExactOracle oracle;
  const auto config = tiny_trace();
  DriverOptions options;
  options.link_capacity = config.link_capacity_per_interval;
  options.groups = paper_groups();
  const auto result = run_single(oracle, config,
                                 packet::FlowDefinition::five_tuple(),
                                 options);
  ASSERT_EQ(result.groups.size(), 3u);
  // The oracle identifies everything with zero error.
  for (const auto& group : result.groups) {
    EXPECT_DOUBLE_EQ(group.unidentified_fraction, 0.0);
    EXPECT_DOUBLE_EQ(group.relative_avg_error, 0.0);
  }
  EXPECT_GT(result.groups[0].true_flows + result.groups[1].true_flows +
                result.groups[2].true_flows,
            0u);
}

TEST(Driver, DeviceThresholdUsedWhenMetricThresholdZero) {
  core::SampleAndHoldConfig config;
  config.threshold = 50'000;
  config.oversampling = 20;
  config.flow_memory_entries = 5000;
  core::SampleAndHold device(config);

  DriverOptions options;  // metric_threshold = 0 => device threshold
  const auto result = run_single(device, tiny_trace(),
                                 packet::FlowDefinition::five_tuple(),
                                 options);
  EXPECT_EQ(result.final_threshold, 50'000u);
}

TEST(Driver, TracksMaxEntries) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 64;
  config.threshold = 1;  // everything passes: memory fills instantly
  config.depth = 1;
  config.buckets_per_stage = 8;
  core::MultistageFilter device(config);
  const auto result = run_single(device, tiny_trace(),
                                 packet::FlowDefinition::five_tuple(),
                                 DriverOptions{});
  EXPECT_EQ(result.max_entries_used, 64u);
}

TEST(Driver, ShardTableRendersPerShardColumnsWithImbalance) {
  core::ShardedDeviceConfig config;
  config.shards = 2;
  core::ShardedDevice device(
      config, [](std::uint32_t, std::uint64_t seed) {
        core::MultistageFilterConfig inner;
        inner.flow_memory_entries = 64;
        inner.depth = 2;
        inner.buckets_per_stage = 64;
        inner.threshold = 20'000;
        inner.seed = seed;
        return std::make_unique<core::MultistageFilter>(inner);
      });
  DriverOptions options;
  options.metric_threshold = 10'000;
  const auto result = run_single(device, tiny_trace(),
                                 packet::FlowDefinition::five_tuple(),
                                 options);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_GT(result.shards[0].packets + result.shards[1].packets, 0u);
  const std::string table = shard_table(result);
  EXPECT_NE(table.find("Shard"), std::string::npos);
  EXPECT_NE(table.find("load imbalance"), std::string::npos);

  // Devices without ShardStatus annotations render nothing.
  baseline::ExactOracle oracle;
  EXPECT_TRUE(shard_table(run_single(oracle, tiny_trace(),
                                     packet::FlowDefinition::five_tuple(),
                                     options))
                  .empty());
}

TEST(Driver, AsPairDefinitionWorksEndToEnd) {
  const auto config = tiny_trace();
  trace::TraceSynthesizer synth(config);
  baseline::ExactOracle oracle;
  DriverOptions options;
  options.metric_threshold = 10'000;
  Driver driver(packet::FlowDefinition::as_pair(synth.as_resolver()),
                options);
  driver.add_device("oracle", oracle);
  driver.run(synth);
  const auto results = driver.results();
  EXPECT_GT(results[0].packets, 0u);
  EXPECT_DOUBLE_EQ(results[0].false_negative_fraction.value(), 0.0);
}

TEST(Driver, ObserveIntervalMatchesRunPath) {
  // Hand-feeding intervals through observe_interval must agree with
  // run(): run() is observe_interval over each synthesized interval.
  auto make_device = [] {
    core::SampleAndHoldConfig config;
    config.flow_memory_entries = 256;
    config.threshold = 30'000;
    config.seed = 7;
    return std::make_unique<core::SampleAndHold>(config);
  };
  DriverOptions options;
  options.metric_threshold = 30'000;
  auto by_hand = make_device();
  Driver manual(packet::FlowDefinition::five_tuple(), options);
  manual.add_device("sah", *by_hand);
  trace::TraceSynthesizer synthesizer(tiny_trace());
  for (;;) {
    const auto packets = synthesizer.next_interval();
    if (packets.empty()) break;
    manual.observe_interval(packets);
  }

  auto by_run = make_device();
  Driver automatic(packet::FlowDefinition::five_tuple(), options);
  automatic.add_device("sah", *by_run);
  trace::TraceSynthesizer synthesizer2(tiny_trace());
  automatic.run(synthesizer2);

  const DeviceResult a = manual.results().front();
  const DeviceResult b = automatic.results().front();
  EXPECT_GT(a.packets, 0u);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.max_entries_used, b.max_entries_used);
  EXPECT_EQ(a.final_threshold, b.final_threshold);
  // Exact, not approximate: the two paths accumulate in the same order.
  EXPECT_EQ(a.false_negative_fraction.value(),
            b.false_negative_fraction.value());
  EXPECT_EQ(a.false_positive_percentage.value(),
            b.false_positive_percentage.value());
  EXPECT_EQ(a.avg_error_over_threshold.value(),
            b.avg_error_over_threshold.value());
  EXPECT_EQ(a.entries_used.value(), b.entries_used.value());
}

}  // namespace
}  // namespace nd::eval
