#include "packet/flow_definition.hpp"

#include <gtest/gtest.h>

namespace nd::packet {
namespace {

PacketRecord tcp_packet() {
  PacketRecord p;
  p.src_ip = 0x0A000001;
  p.dst_ip = 0x0A000102;
  p.src_port = 1234;
  p.dst_port = 80;
  p.protocol = IpProtocol::kTcp;
  p.size_bytes = 500;
  return p;
}

TEST(FlowDefinition, FiveTupleExtractsAllFields) {
  const auto def = FlowDefinition::five_tuple();
  const auto key = def.classify(tcp_packet());
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->kind(), FlowKeyKind::kFiveTuple);
  EXPECT_EQ(key->src_ip(), 0x0A000001u);
  EXPECT_EQ(key->dst_ip(), 0x0A000102u);
  EXPECT_EQ(key->src_port(), 1234);
  EXPECT_EQ(key->dst_port(), 80);
}

TEST(FlowDefinition, DestinationIpIgnoresPorts) {
  const auto def = FlowDefinition::destination_ip();
  auto p1 = tcp_packet();
  auto p2 = tcp_packet();
  p2.src_port = 999;
  p2.src_ip = 0x0B000001;
  const auto k1 = def.classify(p1);
  const auto k2 = def.classify(p2);
  ASSERT_TRUE(k1 && k2);
  EXPECT_EQ(*k1, *k2);  // same destination => same flow
}

TEST(FlowDefinition, AsPairUsesResolver) {
  common::Rng rng(1);
  const auto resolver = AsResolver::synthetic(10, rng, 64512, 3);
  const auto def = FlowDefinition::as_pair(resolver);

  auto packet = tcp_packet();
  packet.src_ip = (10u << 24) | (0 << 8) | 1;   // AS 1000
  packet.dst_ip = (10u << 24) | (4 << 8) | 1;   // AS 1001
  const auto key = def.classify(packet);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->kind(), FlowKeyKind::kAsPair);
  EXPECT_EQ(key->src_as(), 1000u);
  EXPECT_EQ(key->dst_as(), 1001u);
}

TEST(FlowDefinition, AsPairUnresolvableFails) {
  AsResolver resolver;  // no routes at all
  const auto def = FlowDefinition::as_pair(resolver);
  EXPECT_FALSE(def.classify(tcp_packet()).has_value());
}

TEST(FlowDefinition, NetworkPairMasksAddresses) {
  const auto def = FlowDefinition::network_pair(24);
  auto p1 = tcp_packet();            // 10.0.0.1 -> 10.0.1.2
  auto p2 = tcp_packet();
  p2.src_ip = 0x0A0000FF;            // same /24s, different hosts
  p2.dst_ip = 0x0A000101;
  const auto k1 = def.classify(p1);
  const auto k2 = def.classify(p2);
  ASSERT_TRUE(k1 && k2);
  EXPECT_EQ(*k1, *k2);
  EXPECT_EQ(k1->src_network(), 0x0A000000u);
  EXPECT_EQ(k1->dst_network(), 0x0A000100u);
}

TEST(FlowDefinition, NetworkPairDifferentNetworksDiffer) {
  const auto def = FlowDefinition::network_pair(24);
  auto p1 = tcp_packet();
  auto p2 = tcp_packet();
  p2.dst_ip = 0x0A000201;  // different destination /24
  ASSERT_TRUE(def.classify(p1) && def.classify(p2));
  EXPECT_FALSE(*def.classify(p1) == *def.classify(p2));
}

TEST(FlowDefinition, NetworkPairPrefixZeroCollapsesEverything) {
  const auto def = FlowDefinition::network_pair(0);
  auto p1 = tcp_packet();
  auto p2 = tcp_packet();
  p2.src_ip = 0x01020304;
  p2.dst_ip = 0xFFFFFFFE;
  EXPECT_EQ(*def.classify(p1), *def.classify(p2));
}

TEST(FlowDefinition, NetworkPairPrefixClampedTo32) {
  const auto def = FlowDefinition::network_pair(64);
  const auto key = def.classify(tcp_packet());
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->prefix_len(), 32);
  EXPECT_EQ(key->src_network(), tcp_packet().src_ip);
}

TEST(FlowDefinition, SameEndpointsDifferentDefinitionsDiffer) {
  common::Rng rng(2);
  const auto resolver = AsResolver::synthetic(10, rng);
  const auto packet = tcp_packet();
  const auto k5 = FlowDefinition::five_tuple().classify(packet);
  const auto kd = FlowDefinition::destination_ip().classify(packet);
  ASSERT_TRUE(k5 && kd);
  EXPECT_FALSE(*k5 == *kd);
}

}  // namespace
}  // namespace nd::packet
