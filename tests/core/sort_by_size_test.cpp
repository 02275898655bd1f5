// core::sort_by_size against its reference: std::stable_sort on
// descending estimate. The radix pass must give the very same order —
// ties in input order — on every report size, on heavy ties, and on
// estimates wide enough to need the stable_sort fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"

namespace nd::core {
namespace {

constexpr common::ByteCount kMax = std::numeric_limits<std::uint64_t>::max();
constexpr common::ByteCount kTop = std::uint64_t{1} << 63;

/// A report whose flows carry the given estimates, each under a distinct
/// key, so any reordering of equal estimates shows.
Report report_of(const std::vector<common::ByteCount>& estimates) {
  Report report;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    report.flows.push_back(ReportedFlow{
        packet::FlowKey::destination_ip(static_cast<std::uint32_t>(i)),
        estimates[i], i % 3 == 0});
  }
  return report;
}

void expect_stable_descending(
    const std::vector<common::ByteCount>& estimates) {
  Report sorted = report_of(estimates);
  sort_by_size(sorted);
  Report expected = report_of(estimates);
  std::stable_sort(expected.flows.begin(), expected.flows.end(),
                   [](const ReportedFlow& a, const ReportedFlow& b) {
                     return a.estimated_bytes > b.estimated_bytes;
                   });
  ASSERT_EQ(sorted.flows.size(), expected.flows.size());
  for (std::size_t i = 0; i < sorted.flows.size(); ++i) {
    const ReportedFlow& got = sorted.flows[i];
    const ReportedFlow& want = expected.flows[i];
    ASSERT_TRUE(got.key == want.key &&
                got.estimated_bytes == want.estimated_bytes &&
                got.exact == want.exact)
        << "position " << i << " of " << estimates.size() << ": got "
        << got.key.to_string() << " " << got.estimated_bytes << ", want "
        << want.key.to_string() << " " << want.estimated_bytes;
  }
}

TEST(SortBySize, EmptyOneAndTwoFlows) {
  expect_stable_descending({});
  expect_stable_descending({7});
  expect_stable_descending({1, 2});
  expect_stable_descending({2, 1});
  expect_stable_descending({5, 5});
  expect_stable_descending({0, kMax});
}

TEST(SortBySize, PowerOfTwoSizesAndOneMore) {
  // n = 2^k puts the largest index in exactly k bits; 2^k + 1 needs one
  // more.
  common::Rng rng(11);
  for (std::size_t k = 1; k <= 13; ++k) {
    const std::size_t power = std::size_t{1} << k;
    for (const std::size_t n : {power, power + 1}) {
      std::vector<common::ByteCount> estimates(n);
      for (auto& estimate : estimates) estimate = rng.uniform(1'000'000);
      expect_stable_descending(estimates);
    }
  }
}

TEST(SortBySize, HeavyTies) {
  common::Rng rng(12);
  for (const std::uint64_t values : {1U, 2U, 3U, 16U}) {
    std::vector<common::ByteCount> estimates(3'300);
    for (auto& estimate : estimates) {
      estimate = 40 * (1 + rng.uniform(values));
    }
    expect_stable_descending(estimates);
  }
}

TEST(SortBySize, ExtremeEstimates) {
  // Spreads of 64 bits need the stable_sort fallback; a spread of 63
  // bits over two flows fills the 64-bit key exactly; large estimates
  // with a small spread stay on the radix path.
  expect_stable_descending({0, kTop, kMax, 0, kTop, kMax, 1});
  expect_stable_descending({kTop, 0, kTop, 5});
  expect_stable_descending({0, kTop - 1});
  expect_stable_descending({0, kTop - 1, 3});
  expect_stable_descending({kMax, kMax - 7, kMax, kMax - 1'000'000});
  expect_stable_descending({kTop + 2, kTop, kTop + 2, kTop + 1});
  common::Rng rng(13);
  std::vector<common::ByteCount> estimates(5'000);
  for (auto& estimate : estimates) {
    switch (rng.uniform(4)) {
      case 0:
        estimate = 0;
        break;
      case 1:
        estimate = kTop;
        break;
      case 2:
        estimate = kMax;
        break;
      default:
        estimate = rng.word();
        break;
    }
  }
  expect_stable_descending(estimates);
}

TEST(SortBySize, SeededRandomReports) {
  // 10k reports: sizes up to 600 flows, estimates spread over every
  // magnitude (a random word shifted right by 0..63 bits) or drawn from
  // a few values, some already in order.
  common::Rng rng(20010827);
  for (int report = 0; report < 10'000; ++report) {
    std::vector<common::ByteCount> estimates(rng.uniform(601));
    const std::uint64_t shift = rng.uniform(64);
    const std::uint64_t few = 1 + rng.uniform(8);
    const bool ties = rng.uniform(2) == 0;
    for (auto& estimate : estimates) {
      estimate = ties ? rng.uniform(few) << shift : rng.word() >> shift;
    }
    if (rng.uniform(8) == 0) {
      std::sort(estimates.rbegin(), estimates.rend());
    }
    expect_stable_descending(estimates);
  }
}

}  // namespace
}  // namespace nd::core
