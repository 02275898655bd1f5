// Monte-Carlo reference for the closed-form bounds.
//
// The paper's Section 4 proofs are worst-case; these simulators draw
// random hash functions and flow mixes and measure the *actual*
// probabilities, so tests can assert the closed forms really are upper
// bounds (and see how loose they are on realistic mixes — the "orders of
// magnitude better than predicted" observation of Section 7). The
// analysis tests in tests/analysis/monte_carlo_test.cpp compare against
// them; nothing outside the tests does.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/multistage_bounds.hpp"
#include "analysis/sample_hold_bounds.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace nd::testing {

using analysis::MultistageParams;
using analysis::SampleHoldParams;

struct MonteCarloResult {
  double estimate{0.0};
  /// Standard error of the estimate (binomial / sample-mean).
  double standard_error{0.0};
  std::uint64_t trials{0};
};

namespace detail {

inline MonteCarloResult from_bernoulli(std::uint64_t successes,
                                       std::uint64_t trials) {
  MonteCarloResult result;
  result.trials = trials;
  result.estimate =
      static_cast<double>(successes) / static_cast<double>(trials);
  result.standard_error = std::sqrt(
      std::max(result.estimate * (1.0 - result.estimate), 1e-12) /
      static_cast<double>(trials));
  return result;
}

inline MonteCarloResult from_samples(double sum, double sum_sq,
                                     std::uint64_t trials) {
  MonteCarloResult result;
  result.trials = trials;
  result.estimate = sum / static_cast<double>(trials);
  const double variance =
      std::max(sum_sq / static_cast<double>(trials) -
                   result.estimate * result.estimate,
               0.0);
  result.standard_error =
      std::sqrt(variance / static_cast<double>(trials));
  return result;
}

}  // namespace detail

/// Probability that a flow of size `flow_size` passes a parallel
/// multistage filter of shape `params`, when the remaining traffic is
/// `background` (flow sizes in bytes, hashed to random buckets each
/// trial). Compare against pass_probability_bound (Lemma 1).
inline MonteCarloResult simulate_pass_probability(
    const MultistageParams& params, common::ByteCount flow_size,
    std::span<const common::ByteCount> background, std::uint64_t trials,
    std::uint64_t seed) {
  common::Rng rng(seed);
  const double hit = 1.0 / static_cast<double>(params.buckets);
  const common::ByteCount needed =
      params.threshold > flow_size ? params.threshold - flow_size : 0;

  std::uint64_t passes = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    bool all_stages = true;
    for (std::uint32_t d = 0; d < params.depth && all_stages; ++d) {
      // Load contributed by background flows that share the target
      // flow's bucket at this stage (each independently w.p. 1/b).
      common::ByteCount load = 0;
      for (const auto size : background) {
        if (rng.real() < hit) {
          load += size;
          if (load >= needed) break;  // early out
        }
      }
      all_stages = load >= needed;
    }
    if (all_stages) ++passes;
  }
  return detail::from_bernoulli(passes, trials);
}

/// Expected number of flows from `sizes` passing the filter (the
/// quantity Theorem 3 bounds). Each trial draws fresh stage hashes.
inline MonteCarloResult simulate_flows_passing(
    const MultistageParams& params,
    std::span<const common::ByteCount> sizes, std::uint64_t trials,
    std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<common::ByteCount>> loads(
      params.depth, std::vector<common::ByteCount>(params.buckets));
  std::vector<std::vector<std::uint32_t>> assignment(
      params.depth, std::vector<std::uint32_t>(sizes.size()));

  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    for (std::uint32_t d = 0; d < params.depth; ++d) {
      std::fill(loads[d].begin(), loads[d].end(), 0);
      for (std::size_t f = 0; f < sizes.size(); ++f) {
        const auto bucket =
            static_cast<std::uint32_t>(rng.uniform(params.buckets));
        assignment[d][f] = bucket;
        loads[d][bucket] += sizes[f];
      }
    }
    std::uint64_t passing = 0;
    for (std::size_t f = 0; f < sizes.size(); ++f) {
      bool passes = true;
      for (std::uint32_t d = 0; d < params.depth && passes; ++d) {
        passes = loads[d][assignment[d][f]] >= params.threshold;
      }
      if (passes) ++passing;
    }
    sum += static_cast<double>(passing);
    sum_sq += static_cast<double>(passing) * static_cast<double>(passing);
  }
  return detail::from_samples(sum, sum_sq, trials);
}

/// Mean undercount E[s - c] of sample and hold for a flow of
/// `flow_size` bytes sent in `packet_size`-byte packets (the quantity
/// whose expectation is 1/p). Compare against expected_undercount.
inline MonteCarloResult simulate_sample_hold_undercount(
    const SampleHoldParams& params, common::ByteCount flow_size,
    std::uint32_t packet_size, std::uint64_t trials, std::uint64_t seed) {
  common::Rng rng(seed);
  const double p = analysis::byte_sampling_probability(params);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    common::ByteCount skip = rng.geometric(p);
    common::ByteCount undercount = 0;
    common::ByteCount remaining = flow_size;
    while (remaining > 0) {
      const auto size = static_cast<std::uint32_t>(
          std::min<common::ByteCount>(packet_size, remaining));
      if (skip < size) {
        break;  // this packet is sampled: everything after is counted
      }
      skip -= size;
      undercount += size;
      remaining -= size;
    }
    sum += static_cast<double>(undercount);
    sum_sq +=
        static_cast<double>(undercount) * static_cast<double>(undercount);
  }
  return detail::from_samples(sum, sum_sq, trials);
}

/// Probability that sample and hold misses a flow of `flow_size`
/// entirely. Compare against miss_probability.
inline MonteCarloResult simulate_miss_probability(
    const SampleHoldParams& params, common::ByteCount flow_size,
    std::uint32_t packet_size, std::uint64_t trials, std::uint64_t seed) {
  common::Rng rng(seed);
  const double p = analysis::byte_sampling_probability(params);
  std::uint64_t misses = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    common::ByteCount skip = rng.geometric(p);
    if (skip >= flow_size) {
      ++misses;
    }
    (void)packet_size;  // misses depend only on total bytes
  }
  return detail::from_bernoulli(misses, trials);
}

}  // namespace nd::testing
