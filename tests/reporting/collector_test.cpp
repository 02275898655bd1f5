#include "reporting/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace nd::reporting {
namespace {

core::Report report_with(std::size_t flows) {
  core::Report report;
  for (std::size_t i = 0; i < flows; ++i) {
    report.flows.push_back(core::ReportedFlow{
        packet::FlowKey::destination_ip(static_cast<std::uint32_t>(i)),
        1000 * (flows - i),  // largest first
        false});
  }
  return report;
}

TEST(CollectionChannel, DeliversWhollyUnderBudget) {
  CollectionChannel channel(10'000);
  const auto delivered = channel.deliver(report_with(10));
  EXPECT_EQ(delivered.flows.size(), 10u);
  EXPECT_DOUBLE_EQ(channel.stats().record_loss_rate(), 0.0);
  EXPECT_EQ(channel.stats().bytes_offered,
            channel.stats().bytes_delivered);
}

TEST(CollectionChannel, TruncatesOverBudget) {
  // Budget for header + 3 records.
  CollectionChannel channel(kHeaderBytes + 3 * kRecordBytes);
  const auto delivered = channel.deliver(report_with(10));
  EXPECT_EQ(delivered.flows.size(), 3u);
  // Records are delivered in order: the heavy hitters survive.
  EXPECT_EQ(delivered.flows[0].estimated_bytes, 10'000u);
  EXPECT_NEAR(channel.stats().record_loss_rate(), 0.7, 1e-9);
}

TEST(CollectionChannel, TinyBudgetDeliversNothing) {
  CollectionChannel channel(4);
  const auto delivered = channel.deliver(report_with(5));
  EXPECT_TRUE(delivered.flows.empty());
  EXPECT_DOUBLE_EQ(channel.stats().record_loss_rate(), 1.0);
}

TEST(CollectionChannel, StatsAccumulateAcrossIntervals) {
  CollectionChannel channel(kHeaderBytes + 2 * kRecordBytes);
  (void)channel.deliver(report_with(4));
  (void)channel.deliver(report_with(1));
  const auto& stats = channel.stats();
  EXPECT_EQ(stats.reports_offered, 2u);
  EXPECT_EQ(stats.records_offered, 5u);
  EXPECT_EQ(stats.records_delivered, 3u);  // 2 + 1
  EXPECT_LT(stats.bytes_delivered, stats.bytes_offered);
}

TEST(CollectionChannel, MetricsTrailerDeliveredUnderBudget) {
  const std::string metrics = "{\"interval\":1,\"metrics\":[]}";
  CollectionChannel channel(10'000);
  const auto delivered = channel.deliver(report_with(10), metrics);
  EXPECT_TRUE(delivered.metrics_delivered);
  EXPECT_EQ(delivered.report.flows.size(), 10u);
  EXPECT_EQ(channel.stats().bytes_offered,
            channel.stats().bytes_delivered);
  // The trailer's bytes are accounted on the channel.
  EXPECT_EQ(channel.stats().bytes_delivered,
            encoded_size(report_with(10), metrics.size()));
}

TEST(CollectionChannel, TrailerDroppedBeforeAnyFlowRecord) {
  // Budget covers all records but not the trailer: flow records keep
  // priority on the constrained link, the trailer is the first casualty.
  const std::string metrics(200, 'x');
  const auto report = report_with(10);
  CollectionChannel channel(encoded_size(report) + 100);
  const auto delivered = channel.deliver(report, metrics);
  EXPECT_FALSE(delivered.metrics_delivered);
  EXPECT_EQ(delivered.report.flows.size(), 10u);
  // Offered bytes include the dropped trailer; delivered bytes do not.
  EXPECT_EQ(channel.stats().bytes_offered,
            encoded_size(report, metrics.size()));
  EXPECT_EQ(channel.stats().bytes_delivered, encoded_size(report));
}

TEST(CollectionChannel, TrailerPressureStillTruncatesRecords) {
  // Once the records alone exceed the budget, behavior degrades exactly
  // like the trailer-less path: prefix of records, no trailer.
  CollectionChannel channel(kHeaderBytes + 3 * kRecordBytes);
  const auto delivered = channel.deliver(report_with(10), "{}");
  EXPECT_FALSE(delivered.metrics_delivered);
  EXPECT_EQ(delivered.report.flows.size(), 3u);
}

TEST(CollectionChannel, EmptyTrailerBehavesLikePlainDeliver) {
  CollectionChannel channel(10'000);
  const auto delivered = channel.deliver(report_with(2), "");
  EXPECT_FALSE(delivered.metrics_delivered);
  EXPECT_EQ(delivered.report.flows.size(), 2u);
  EXPECT_EQ(channel.stats().bytes_offered,
            channel.stats().bytes_delivered);
}

TEST(CollectionChannel, TrailerIsDecidedOnTheOfferedReport) {
  // The budget leaves room for three records plus the trailer: the
  // truncated report would fit with its trailer, the offered one does
  // not, and the offered one decides. Truncation is in place and keeps
  // the largest-first prefix.
  const std::string metrics = "{}";
  const std::size_t trailer = kTrailerLengthBytes + metrics.size();
  ASSERT_LT(trailer, kRecordBytes);
  core::Report report = report_with(10);
  const core::Report offered = report;
  CollectionChannel channel(kHeaderBytes + 3 * kRecordBytes + trailer);
  const auto delivered = channel.deliver(std::move(report), metrics);
  EXPECT_FALSE(delivered.metrics_delivered);
  ASSERT_EQ(delivered.report.flows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(delivered.report.flows[i].key, offered.flows[i].key);
  }
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.reports_offered, 1u);
  EXPECT_EQ(stats.records_offered, 10u);
  EXPECT_EQ(stats.records_delivered, 3u);
  EXPECT_EQ(stats.bytes_offered, encoded_size(offered, metrics.size()));
  EXPECT_EQ(stats.bytes_delivered, kHeaderBytes + 3 * kRecordBytes);
}

TEST(CollectionChannel, LvalueDeliverLeavesTheCallersReportIntact) {
  const core::Report report = report_with(10);
  CollectionChannel channel(kHeaderBytes + 2 * kRecordBytes);
  const core::Report delivered = channel.deliver(report);
  EXPECT_EQ(delivered.flows.size(), 2u);
  EXPECT_EQ(report.flows.size(), 10u);
}

std::vector<core::ReportedFlow> stable_sorted(core::Report report) {
  std::stable_sort(report.flows.begin(), report.flows.end(),
                   [](const core::ReportedFlow& a,
                      const core::ReportedFlow& b) {
                     return a.estimated_bytes > b.estimated_bytes;
                   });
  return report.flows;
}

void expect_sorts_like_stable_sort(const core::Report& input) {
  core::Report sorted = input;
  core::sort_by_size(sorted);
  const std::vector<core::ReportedFlow> expected = stable_sorted(input);
  ASSERT_EQ(sorted.flows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sorted.flows[i].key, expected[i].key) << i;
    EXPECT_EQ(sorted.flows[i].estimated_bytes, expected[i].estimated_bytes)
        << i;
  }
}

TEST(SortBySize, MatchesStableSortOnSortedReversedAndTiedInput) {
  // Already sorted (the early return), reverse sorted, all tied, and
  // runs of ties in both directions: every order must equal a stable
  // descending sort, so ties keep their report order.
  const core::Report sorted = report_with(9);
  core::Report reversed = sorted;
  std::reverse(reversed.flows.begin(), reversed.flows.end());
  core::Report tied = report_with(7);
  for (auto& flow : tied.flows) flow.estimated_bytes = 500;
  core::Report tied_runs = report_with(12);
  for (std::size_t i = 0; i < tied_runs.flows.size(); ++i) {
    tied_runs.flows[i].estimated_bytes = 1000 * (1 + (i % 3));
  }
  core::Report tied_descending = report_with(12);
  for (std::size_t i = 0; i < tied_descending.flows.size(); ++i) {
    tied_descending.flows[i].estimated_bytes = 1000 * (4 - i / 3);
  }
  for (const core::Report& input :
       {sorted, reversed, tied, tied_runs, tied_descending}) {
    expect_sorts_like_stable_sort(input);
  }
  expect_sorts_like_stable_sort(core::Report{});
}

TEST(CollectionChannel, NinetyPercentLossScenario) {
  // Section 2's "loss rates of up to 90% using basic NetFlow": offer
  // 10x more records than the channel carries.
  CollectionChannel channel(kHeaderBytes + 100 * kRecordBytes);
  (void)channel.deliver(report_with(1000));
  EXPECT_NEAR(channel.stats().record_loss_rate(), 0.9, 1e-9);
}

}  // namespace
}  // namespace nd::reporting
