// Property-based tests of the multistage filter's paper-proven
// invariants, swept over randomized workloads and configurations:
//
//  P1 (no false negatives): for ANY packet stream, every flow with
//     >= T bytes in the interval is in the report — for parallel and
//     serial filters, with and without conservative update/shielding.
//  P2 (conservative dominance): with conservative update every stage
//     counter is pointwise <= its plain-update twin.
//  P3 (monotone filtering): more stages can only reduce false positives.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/multistage_filter.hpp"

namespace nd::core {
namespace {

struct Workload {
  std::vector<std::pair<packet::FlowKey, std::uint32_t>> packets;
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      truth;
};

Workload random_workload(std::uint64_t seed, std::size_t flows,
                         std::size_t packets) {
  common::Rng rng(seed);
  Workload w;
  w.packets.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    const auto flow =
        static_cast<std::uint32_t>(rng.uniform(flows));
    // Skewed flow picks + skewed sizes: low flow ids send more, bigger.
    const auto chosen = static_cast<std::uint32_t>(
        rng.uniform(flow + 1));  // biases toward small ids
    const auto size = static_cast<std::uint32_t>(40 + rng.uniform(1460));
    const auto key = packet::FlowKey::destination_ip(chosen);
    w.packets.emplace_back(key, size);
    w.truth[key] += size;
  }
  return w;
}

using PropertyParams =
    std::tuple<std::uint64_t /*seed*/, bool /*serial*/,
               bool /*conservative*/, bool /*shielding*/>;

class NoFalseNegatives : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(NoFalseNegatives, EveryLargeFlowReported) {
  const auto [seed, serial, conservative, shielding] = GetParam();
  const Workload w = random_workload(seed, 200, 20'000);

  MultistageFilterConfig config;
  config.flow_memory_entries = 100'000;  // never the bottleneck here
  config.depth = 3;
  config.buckets_per_stage = 64;  // deliberately weak: many collisions
  config.threshold = 50'000;
  config.serial = serial;
  config.conservative_update = conservative;
  config.shielding = shielding;
  config.seed = seed ^ 0xABCDEF;
  MultistageFilter device(config);

  for (const auto& [key, size] : w.packets) {
    device.observe(key, size);
  }
  const Report report = device.end_interval();

  for (const auto& [key, size] : w.truth) {
    if (size >= config.threshold) {
      const auto* flow = find_flow(report, key);
      ASSERT_NE(flow, nullptr)
          << "false negative for flow of " << size << " bytes (serial="
          << serial << " conservative=" << conservative
          << " shielding=" << shielding << ")";
      // The estimate can miss at most T (+ the admitting packet).
      EXPECT_GE(flow->estimated_bytes + config.threshold + 1500, size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoFalseNegatives,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool(),   // serial
                       ::testing::Bool(),   // conservative update
                       ::testing::Bool())); // shielding

class ConservativeDominance : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConservativeDominance, CountersPointwiseBelowPlain) {
  const std::uint64_t seed = GetParam();
  const Workload w = random_workload(seed, 100, 5'000);

  MultistageFilterConfig config;
  config.flow_memory_entries = 100'000;
  config.depth = 4;
  config.buckets_per_stage = 32;
  config.threshold = 1'000'000'000;  // nothing passes: pure sketch test
  config.seed = seed ^ 0x77;

  config.conservative_update = false;
  MultistageFilter plain(config);
  config.conservative_update = true;
  MultistageFilter conservative(config);

  for (const auto& [key, size] : w.packets) {
    plain.observe(key, size);
    conservative.observe(key, size);
  }
  for (std::uint32_t s = 0; s < config.depth; ++s) {
    for (std::uint64_t b = 0; b < config.buckets_per_stage; ++b) {
      EXPECT_LE(conservative.counter(s, b), plain.counter(s, b))
          << "stage " << s << " bucket " << b;
    }
  }
}

TEST_P(ConservativeDominance, CountersStillUpperBoundFlowTraffic) {
  // Sketch soundness under conservative update: for every flow, each of
  // its counters is >= the flow's true bytes (otherwise a false negative
  // would be possible).
  const std::uint64_t seed = GetParam();
  const Workload w = random_workload(seed, 100, 5'000);

  MultistageFilterConfig config;
  config.flow_memory_entries = 100'000;
  config.depth = 4;
  config.buckets_per_stage = 32;
  config.threshold = 1'000'000'000;
  config.conservative_update = true;
  config.seed = seed ^ 0x99;
  MultistageFilter device(config);
  for (const auto& [key, size] : w.packets) {
    device.observe(key, size);
  }

  hash::HashFamily family(config.seed);
  std::vector<hash::StageHash> hashes;
  for (std::uint32_t d = 0; d < config.depth; ++d) {
    hashes.push_back(family.make_stage(config.buckets_per_stage));
  }
  for (const auto& [key, size] : w.truth) {
    for (std::uint32_t d = 0; d < config.depth; ++d) {
      EXPECT_GE(device.counter(d, hashes[d].bucket(key.fingerprint())),
                size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservativeDominance,
                         ::testing::Values(11, 22, 33, 44));

class DepthMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DepthMonotonicity, MoreStagesFewerFalsePositives) {
  const std::uint64_t seed = GetParam();
  const Workload w = random_workload(seed, 500, 30'000);
  const common::ByteCount threshold = 40'000;

  std::vector<std::size_t> false_positives;
  for (const std::uint32_t depth : {1u, 2u, 3u, 4u}) {
    MultistageFilterConfig config;
    config.flow_memory_entries = 100'000;
    config.depth = depth;
    config.buckets_per_stage = 128;
    config.threshold = threshold;
    config.conservative_update = false;
    config.seed = seed;  // same seed: stage i identical across filters
    MultistageFilter device(config);
    for (const auto& [key, size] : w.packets) {
      device.observe(key, size);
    }
    const Report report = device.end_interval();
    std::size_t fp = 0;
    for (const auto& flow : report.flows) {
      if (w.truth.at(flow.key) < threshold) ++fp;
    }
    false_positives.push_back(fp);
  }
  for (std::size_t i = 1; i < false_positives.size(); ++i) {
    EXPECT_LE(false_positives[i], false_positives[i - 1])
        << "depth " << i + 1 << " vs " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthMonotonicity,
                         ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace nd::core
