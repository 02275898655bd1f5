#include "core/sample_and_hold.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "common/rng.hpp"

namespace nd::core {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

/// Feed `total` bytes of flow `k` in `packet_size`-byte packets.
void feed(MeasurementDevice& device, const packet::FlowKey& k,
          common::ByteCount total, std::uint32_t packet_size = 500) {
  while (total > 0) {
    const auto size = static_cast<std::uint32_t>(
        std::min<common::ByteCount>(packet_size, total));
    device.observe(k, size);
    total -= size;
  }
}

SampleAndHoldConfig basic_config() {
  SampleAndHoldConfig config;
  config.flow_memory_entries = 1000;
  config.threshold = 100'000;
  config.oversampling = 20.0;
  config.seed = 42;
  return config;
}

TEST(SampleAndHold, LargeFlowDetectedWithHighOversampling) {
  // O = 20 => miss probability e^-20; a flow at the threshold is
  // essentially always found.
  SampleAndHold device(basic_config());
  feed(device, key(1), 100'000);
  const Report report = device.end_interval();
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_EQ(report.flows[0].key, key(1));
}

TEST(SampleAndHold, NeverOverestimates) {
  // Without the sampling correction the estimate is a provable lower
  // bound (Section 5.2 point iii) — the billing-safety property.
  SampleAndHoldConfig config = basic_config();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    config.seed = seed;
    SampleAndHold device(config);
    feed(device, key(1), 250'000, 1500);
    feed(device, key(2), 100'000, 40);
    const Report report = device.end_interval();
    for (const auto& flow : report.flows) {
      const common::ByteCount truth = flow.key == key(1) ? 250'000 : 100'000;
      EXPECT_LE(flow.estimated_bytes, truth) << "seed " << seed;
    }
  }
}

TEST(SampleAndHold, EstimateCloseForLargeFlows) {
  // Expected undercount is 1/p = T/O = 5,000 bytes.
  SampleAndHold device(basic_config());
  feed(device, key(1), 1'000'000);
  const Report report = device.end_interval();
  const ReportedFlow* flow = find_flow(report, key(1));
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->estimated_bytes, 900'000u);
}

TEST(SampleAndHold, MissProbabilityMatchesTheory) {
  // With oversampling O = 1 a flow at the threshold is missed with
  // probability ~ e^-1 = 36.8%.
  SampleAndHoldConfig config = basic_config();
  config.oversampling = 1.0;
  int missed = 0;
  constexpr int kRuns = 400;
  for (int run = 0; run < kRuns; ++run) {
    config.seed = static_cast<std::uint64_t>(run) + 1;
    SampleAndHold device(config);
    feed(device, key(7), config.threshold);
    const Report report = device.end_interval();
    if (find_flow(report, key(7)) == nullptr) ++missed;
  }
  const double miss_rate = static_cast<double>(missed) / kRuns;
  EXPECT_NEAR(miss_rate, std::exp(-1.0), 0.08);
}

TEST(SampleAndHold, SamplingProbabilityTracksThreshold) {
  SampleAndHold device(basic_config());
  EXPECT_DOUBLE_EQ(device.sampling_probability(), 20.0 / 100'000);
  device.set_threshold(200'000);
  EXPECT_DOUBLE_EQ(device.sampling_probability(), 20.0 / 200'000);
}

TEST(SampleAndHold, TinyThresholdCapsProbabilityAtOne) {
  SampleAndHoldConfig config = basic_config();
  config.threshold = 10;
  config.oversampling = 100.0;
  SampleAndHold device(config);
  EXPECT_DOUBLE_EQ(device.sampling_probability(), 1.0);
  device.observe(key(1), 100);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);  // p=1 catches everything
}

TEST(SampleAndHold, MemoryFullDropsSamples) {
  SampleAndHoldConfig config = basic_config();
  config.flow_memory_entries = 4;
  config.threshold = 1000;  // p = 0.02: lots of samples
  SampleAndHold device(config);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    device.observe(key(i), 1000);
  }
  const Report report = device.end_interval();
  EXPECT_EQ(report.flows.size(), 4u);
  EXPECT_GT(device.dropped_samples(), 0u);
}

TEST(SampleAndHold, PreserveEntriesMakesSecondIntervalExact) {
  SampleAndHoldConfig config = basic_config();
  config.preserve = flowmem::PreservePolicy::kPreserve;
  SampleAndHold device(config);

  feed(device, key(1), 500'000);
  const Report first = device.end_interval();
  const ReportedFlow* f1 = find_flow(first, key(1));
  ASSERT_NE(f1, nullptr);
  EXPECT_FALSE(f1->exact);

  feed(device, key(1), 500'000);
  const Report second = device.end_interval();
  const ReportedFlow* f2 = find_flow(second, key(1));
  ASSERT_NE(f2, nullptr);
  EXPECT_TRUE(f2->exact);
  EXPECT_EQ(f2->estimated_bytes, 500'000u);  // exact, not an estimate
}

TEST(SampleAndHold, ClearPolicyForgetsEverything) {
  SampleAndHold device(basic_config());
  feed(device, key(1), 500'000);
  (void)device.end_interval();
  const Report second = device.end_interval();
  EXPECT_TRUE(second.flows.empty());
}

TEST(SampleAndHold, EarlyRemovalPrunesSmallNewEntries) {
  SampleAndHoldConfig config = basic_config();
  config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
  config.early_removal_fraction = 0.15;
  config.threshold = 100'000;
  config.oversampling = 2000.0;  // sample aggressively
  SampleAndHold device(config);

  feed(device, key(1), 1'000);    // tiny: below R = 15,000
  feed(device, key(2), 50'000);   // medium: above R, below T
  feed(device, key(3), 200'000);  // large: above T
  (void)device.end_interval();

  // Who survived into the next interval? Feed nothing and report.
  const Report second = device.end_interval();
  EXPECT_EQ(find_flow(second, key(1)), nullptr);
  EXPECT_NE(find_flow(second, key(2)), nullptr);
  EXPECT_NE(find_flow(second, key(3)), nullptr);
}

TEST(SampleAndHold, PacketAndAccessCounters) {
  SampleAndHold device(basic_config());
  feed(device, key(1), 10'000, 500);  // 20 packets
  EXPECT_EQ(device.packets_processed(), 20u);
  EXPECT_GE(device.memory_accesses(), 20u);  // one lookup per packet
  EXPECT_EQ(device.name(), "sample-and-hold");
  EXPECT_EQ(device.flow_memory_capacity(), 1000u);
}

TEST(SampleAndHold, ReportCarriesIntervalAndThreshold) {
  SampleAndHold device(basic_config());
  const Report r0 = device.end_interval();
  const Report r1 = device.end_interval();
  EXPECT_EQ(r0.interval, 0u);
  EXPECT_EQ(r1.interval, 1u);
  EXPECT_EQ(r0.threshold, 100'000u);
}

class SampleAndHoldOversampling : public ::testing::TestWithParam<double> {};

TEST_P(SampleAndHoldOversampling, ErrorShrinksWithO) {
  // Property: average undercount for a large flow ~ T/O.
  const double oversampling = GetParam();
  SampleAndHoldConfig config = basic_config();
  config.oversampling = oversampling;
  double undercount_sum = 0.0;
  constexpr int kRuns = 60;
  constexpr common::ByteCount kFlow = 400'000;
  for (int run = 0; run < kRuns; ++run) {
    config.seed = static_cast<std::uint64_t>(run) * 31 + 1;
    SampleAndHold device(config);
    feed(device, key(1), kFlow, 100);
    const Report report = device.end_interval();
    const auto* flow = find_flow(report, key(1));
    undercount_sum += static_cast<double>(
        kFlow - (flow ? flow->estimated_bytes : 0));
  }
  const double avg_undercount = undercount_sum / kRuns;
  const double expected = static_cast<double>(config.threshold) /
                          oversampling;  // 1/p
  EXPECT_LT(avg_undercount, expected * 2.5 + 500.0);
  EXPECT_GT(avg_undercount, expected * 0.3 - 500.0);
}

INSTANTIATE_TEST_SUITE_P(Oversampling, SampleAndHoldOversampling,
                         ::testing::Values(2.0, 4.0, 10.0, 20.0, 50.0));

}  // namespace
}  // namespace nd::core
