#include "trace/stats.hpp"

#include <gtest/gtest.h>

#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

namespace nd::trace {
namespace {

packet::PacketRecord make_packet(std::uint32_t dst, std::uint32_t size) {
  packet::PacketRecord p;
  p.src_ip = 0x0A000001;
  p.dst_ip = dst;
  p.src_port = 1;
  p.dst_port = 2;
  p.protocol = packet::IpProtocol::kTcp;
  p.size_bytes = size;
  return p;
}

TEST(MinAvgMax, TracksAll) {
  MinAvgMax m;
  m.observe(3);
  m.observe(1);
  m.observe(5);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 5.0);
  EXPECT_DOUBLE_EQ(m.avg(), 3.0);
}

TEST(MinAvgMax, EmptyAvgIsZero) {
  EXPECT_DOUBLE_EQ(MinAvgMax{}.avg(), 0.0);
}

TEST(ExactFlowSizes, AggregatesByKey) {
  std::vector<packet::PacketRecord> packets = {
      make_packet(1, 100), make_packet(1, 200), make_packet(2, 50)};
  const auto sizes =
      exact_flow_sizes(packets, packet::FlowDefinition::destination_ip());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes.at(packet::FlowKey::destination_ip(1)), 300u);
  EXPECT_EQ(sizes.at(packet::FlowKey::destination_ip(2)), 50u);
}

TEST(TraceStats, AccumulatesIntervals) {
  TraceStats stats(packet::FlowDefinition::destination_ip());
  stats.observe_interval(std::vector<packet::PacketRecord>{
      make_packet(1, 100), make_packet(2, 100)});
  stats.observe_interval(std::vector<packet::PacketRecord>{
      make_packet(1, 400)});
  EXPECT_DOUBLE_EQ(stats.flows_per_interval().min, 1.0);
  EXPECT_DOUBLE_EQ(stats.flows_per_interval().max, 2.0);
  EXPECT_DOUBLE_EQ(stats.bytes_per_interval().avg(), 300.0);
}

TEST(FlowSizeCdf, EmptyInput) {
  EXPECT_TRUE(flow_size_cdf({}, packet::FlowDefinition::five_tuple()).empty());
}

TEST(FlowSizeCdf, MonotoneAndEndsAtOne) {
  auto config = scaled(Presets::cos(), 0.2);
  config.num_intervals = 1;
  TraceSynthesizer synth(config);
  const auto packets = synth.next_interval();
  const auto cdf =
      flow_size_cdf(packets, packet::FlowDefinition::five_tuple(), 40);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].flow_fraction, cdf[i - 1].flow_fraction);
    EXPECT_GE(cdf[i].traffic_fraction, cdf[i - 1].traffic_fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().flow_fraction, 1.0);
  EXPECT_NEAR(cdf.back().traffic_fraction, 1.0, 1e-9);
}

TEST(FlowSizeCdf, HeavyHittersDominateSyntheticTraces) {
  // Figure 6's headline: the top 10% of flows carry >= ~85% of traffic.
  auto config = scaled(Presets::mag(), 0.05);
  config.num_intervals = 1;
  TraceSynthesizer synth(config);
  const auto packets = synth.next_interval();
  const auto cdf =
      flow_size_cdf(packets, packet::FlowDefinition::five_tuple(), 100);
  ASSERT_GE(cdf.size(), 10u);
  EXPECT_GT(cdf[9].traffic_fraction, 0.70);  // top ~10%
}

TEST(FlowSizeCdf, HandCraftedValues) {
  // Two flows: 900 bytes and 100 bytes; top 50% of flows = 90%.
  std::vector<packet::PacketRecord> packets = {make_packet(1, 900),
                                               make_packet(2, 100)};
  const auto cdf =
      flow_size_cdf(packets, packet::FlowDefinition::destination_ip(), 2);
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].flow_fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[0].traffic_fraction, 0.9);
  EXPECT_DOUBLE_EQ(cdf[1].traffic_fraction, 1.0);
}

}  // namespace
}  // namespace nd::trace
