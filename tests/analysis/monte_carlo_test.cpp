// Monte-Carlo validation that the paper's closed forms are genuine
// upper bounds (and that the exact expectations match simulation).
#include <gtest/gtest.h>

#include "../support/monte_carlo.hpp"
#include "analysis/zipf_bounds.hpp"

namespace nd::analysis {
namespace {

using namespace nd::testing;

TEST(MonteCarloLemma1, BoundHoldsOnAdversarialMix) {
  // The mix that makes Lemma 1 nearly tight: many flows of size T-s
  // (Section 4.2 notes the bound is "almost exact" for it).
  MultistageParams params;
  params.buckets = 100;
  params.depth = 2;
  params.capacity = 10'000'000;
  params.threshold = 1'000'000;
  const common::ByteCount s = 100'000;

  // floor((C - s)/(T - s)) flows of size T-s.
  const std::size_t count =
      static_cast<std::size_t>((params.capacity - s) /
                               (params.threshold - s));
  const std::vector<common::ByteCount> background(
      count, params.threshold - s);

  const auto sim =
      simulate_pass_probability(params, s, background, 20'000, 7);
  const double bound = pass_probability_bound(params, s);
  EXPECT_LE(sim.estimate, bound + 3.0 * sim.standard_error);
  // And nearly tight: simulation within a small factor of the bound.
  EXPECT_GT(sim.estimate, bound / 4.0);
}

TEST(MonteCarloLemma1, BoundVeryLooseOnZipfMix) {
  // Section 7.1.2: "for realistic traffic mixes this is a very
  // conservative bound."
  MultistageParams params;
  params.buckets = 500;
  params.depth = 3;
  params.capacity = 20'000'000;
  params.threshold = 400'000;
  const auto background = zipf_flow_sizes(5'000, 1.0, 20'000'000);

  const common::ByteCount s = 40'000;
  const auto sim =
      simulate_pass_probability(params, s, background, 5'000, 11);
  const double bound = pass_probability_bound(params, s);
  EXPECT_LE(sim.estimate, bound + 3.0 * sim.standard_error);
  EXPECT_LT(sim.estimate, bound / 2.0);  // visibly loose
}

TEST(MonteCarloTheorem3, ExpectedPassingBelowBound) {
  MultistageParams params;
  params.buckets = 200;
  params.depth = 3;
  params.flows = 2'000;
  params.capacity = 20'000'000;
  params.threshold = 1'000'000;  // k = 10
  const auto sizes = zipf_flow_sizes(2'000, 1.0, 20'000'000);

  const auto sim = simulate_flows_passing(params, sizes, 300, 13);
  const double bound = expected_flows_passing(params);
  EXPECT_LE(sim.estimate, bound + 3.0 * sim.standard_error);
}

TEST(MonteCarloTheorem3, DeeperFiltersPassFewer) {
  MultistageParams params;
  params.buckets = 200;
  params.flows = 2'000;
  params.capacity = 20'000'000;
  params.threshold = 500'000;
  const auto sizes = zipf_flow_sizes(2'000, 1.0, 20'000'000);

  params.depth = 1;
  const auto one = simulate_flows_passing(params, sizes, 200, 17);
  params.depth = 3;
  const auto three = simulate_flows_passing(params, sizes, 200, 17);
  EXPECT_LT(three.estimate, one.estimate);
}

TEST(MonteCarloSampleHold, UndercountMatchesInverseP) {
  // E[s - c] = 1/p for flows much larger than 1/p; packetization only
  // helps (the sampled packet's leading bytes are counted), so the
  // simulated mean sits at or below 1/p.
  SampleHoldParams params;
  params.oversampling = 20.0;
  params.threshold = 1'000'000;  // p = 2e-5, 1/p = 50 KB
  const auto sim = simulate_sample_hold_undercount(
      params, 2'000'000, 1'000, 20'000, 19);
  const double expected = expected_undercount(params);
  EXPECT_LT(sim.estimate, expected);
  EXPECT_GT(sim.estimate, expected * 0.9);
  EXPECT_LT(sim.standard_error, expected * 0.02);
}

TEST(MonteCarloSampleHold, SmallPacketsApproachByteModel) {
  // With 40-byte packets the packetization bonus shrinks toward the
  // pure byte model's 1/p.
  SampleHoldParams params;
  params.oversampling = 10.0;
  params.threshold = 100'000;  // 1/p = 10 KB
  const auto coarse = simulate_sample_hold_undercount(
      params, 500'000, 1'500, 20'000, 23);
  const auto fine = simulate_sample_hold_undercount(
      params, 500'000, 40, 20'000, 23);
  EXPECT_LT(coarse.estimate, fine.estimate);
  EXPECT_NEAR(fine.estimate, expected_undercount(params),
              expected_undercount(params) * 0.05);
}

TEST(MonteCarloSampleHold, MissProbabilityMatchesClosedForm) {
  SampleHoldParams params;
  params.oversampling = 2.0;  // e^-2 ~ 13.5%: measurable in few trials
  params.threshold = 100'000;
  const auto sim =
      simulate_miss_probability(params, 100'000, 500, 50'000, 29);
  const double expected = miss_probability(params, 100'000);
  EXPECT_NEAR(sim.estimate, expected, 4.0 * sim.standard_error + 1e-4);
}

TEST(MonteCarloSampleHold, LargerFlowsMissedLess) {
  SampleHoldParams params;
  params.oversampling = 1.0;
  params.threshold = 100'000;
  const auto at_threshold =
      simulate_miss_probability(params, 100'000, 500, 20'000, 31);
  const auto triple =
      simulate_miss_probability(params, 300'000, 500, 20'000, 31);
  EXPECT_LT(triple.estimate, at_threshold.estimate / 2.0);
}

TEST(MonteCarloResultShape, ErrorsShrinkWithTrials) {
  SampleHoldParams params;
  params.oversampling = 5.0;
  params.threshold = 100'000;
  const auto few =
      simulate_miss_probability(params, 100'000, 500, 1'000, 37);
  const auto many =
      simulate_miss_probability(params, 100'000, 500, 100'000, 37);
  EXPECT_LT(many.standard_error, few.standard_error);
  EXPECT_EQ(many.trials, 100'000u);
}

}  // namespace
}  // namespace nd::analysis
