#include "core/measurement_session.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "baseline/exact_oracle.hpp"
#include "core/multistage_filter.hpp"

namespace nd::core {
namespace {

using std::chrono_literals::operator""s;

constexpr common::TimestampNs kSecond = 1'000'000'000ULL;

packet::PacketRecord packet_at(common::TimestampNs ts, std::uint32_t dst,
                               std::uint32_t size) {
  packet::PacketRecord p;
  p.timestamp_ns = ts;
  p.src_ip = 1;
  p.dst_ip = dst;
  p.protocol = packet::IpProtocol::kUdp;
  p.size_bytes = size;
  return p;
}

MeasurementSession oracle_session(common::IntervalDuration duration = 5s) {
  return MeasurementSession(std::make_unique<baseline::ExactOracle>(),
                            packet::FlowDefinition::destination_ip(),
                            duration);
}

TEST(MeasurementSession, NoReportsBeforeBoundary) {
  auto session = oracle_session();
  session.observe(packet_at(1 * kSecond, 7, 100));
  session.observe(packet_at(4 * kSecond, 7, 100));
  EXPECT_TRUE(session.drain_reports().empty());
  EXPECT_EQ(session.intervals_closed(), 0u);
}

TEST(MeasurementSession, BoundaryClosesInterval) {
  auto session = oracle_session();
  session.observe(packet_at(1 * kSecond, 7, 100));
  session.observe(packet_at(6 * kSecond, 7, 50));  // crosses 5 s boundary
  const auto reports = session.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].flows.size(), 1u);
  EXPECT_EQ(reports[0].flows[0].estimated_bytes, 100u);
}

TEST(MeasurementSession, ClosesIntervalPredictsEveryClose) {
  // ndtm waits for its report stage exactly when closes_interval says
  // the next observe closes; it must agree with observe on every packet,
  // including the first, exact boundaries and multi-interval gaps.
  auto session = oracle_session();
  const common::TimestampNs stamps[] = {
      7 * kSecond, 9 * kSecond,  10 * kSecond - 1, 10 * kSecond,
      12 * kSecond, 31 * kSecond, 31 * kSecond, 35 * kSecond};
  for (const common::TimestampNs ts : stamps) {
    const packet::PacketRecord p = packet_at(ts, 1, 10);
    const bool predicted = session.closes_interval(p);
    session.observe(p);
    EXPECT_EQ(predicted, !session.drain_reports().empty()) << ts;
  }
}

TEST(MeasurementSession, BoundariesAnchoredToClock) {
  // First packet at t=7s: interval [5s,10s); a packet at 9.9s stays in
  // it, one at 10s closes it.
  auto session = oracle_session();
  session.observe(packet_at(7 * kSecond, 1, 10));
  session.observe(packet_at(9 * kSecond + 900'000'000, 1, 10));
  EXPECT_TRUE(session.drain_reports().empty());
  session.observe(packet_at(10 * kSecond, 1, 10));
  EXPECT_EQ(session.drain_reports().size(), 1u);
}

TEST(MeasurementSession, IdleGapClosesEveryElapsedInterval) {
  auto session = oracle_session();
  session.observe(packet_at(0, 1, 10));
  session.observe(packet_at(21 * kSecond, 1, 10));  // 4 boundaries passed
  const auto reports = session.drain_reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].flows.size(), 1u);
  EXPECT_TRUE(reports[1].flows.empty());
  EXPECT_TRUE(reports[3].flows.empty());
}

TEST(MeasurementSession, FinishFlushesPartialInterval) {
  auto session = oracle_session();
  session.observe(packet_at(2 * kSecond, 9, 400));
  const auto reports = session.finish();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].flows[0].estimated_bytes, 400u);
  EXPECT_EQ(session.intervals_closed(), 1u);
}

TEST(MeasurementSession, FinishOnEmptySessionYieldsNothing) {
  auto session = oracle_session();
  EXPECT_TRUE(session.finish().empty());
}

TEST(MeasurementSession, UnclassifiedPacketsCounted) {
  const packet::AsResolver no_routes;
  MeasurementSession session(std::make_unique<baseline::ExactOracle>(),
                             packet::FlowDefinition::as_pair(no_routes), 5s);
  session.observe(packet_at(0, 1, 10));  // no route: no AS pair
  EXPECT_EQ(session.packets_observed(), 1u);
  EXPECT_EQ(session.packets_unclassified(), 1u);
  const auto reports = session.finish();
  EXPECT_TRUE(reports[0].flows.empty());
}

TEST(MeasurementSession, WorksWithRealDevice) {
  MultistageFilterConfig config;
  config.flow_memory_entries = 64;
  config.depth = 2;
  config.buckets_per_stage = 64;
  config.threshold = 1000;
  MeasurementSession session(std::make_unique<MultistageFilter>(config),
                             packet::FlowDefinition::destination_ip(), 1s);
  for (common::TimestampNs t = 0; t < 3 * kSecond;
       t += kSecond / 10) {
    session.observe(packet_at(t, 42, 200));  // 2000 B/s: above threshold
  }
  const auto reports = session.finish();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) {
    EXPECT_NE(find_flow(report, packet::FlowKey::destination_ip(42)),
              nullptr);
  }
}

TEST(MeasurementSession, DeviceAccessor) {
  auto session = oracle_session();
  EXPECT_EQ(session.device().name(), "exact-oracle");
}

}  // namespace
}  // namespace nd::core
