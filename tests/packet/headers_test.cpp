#include "packet/headers.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nd::packet {
namespace {

TEST(Checksum, Rfc1071KnownVector) {
  // Classic example from RFC 1071 discussions:
  // 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220D);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> data = {0x01};
  // Sum = 0x0100, checksum = ~0x0100.
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x0100));
}

TEST(Checksum, AllZerosIsAllOnes) {
  const std::vector<std::uint8_t> data(20, 0);
  EXPECT_EQ(internet_checksum(data), 0xFFFF);
}

// Ethernet header followed by `ip` and `l4` bytes: a frame assembled
// from the header serializers, for parse_frame to take apart.
std::vector<std::uint8_t> frame_of(const Ipv4Header& ip,
                                   const std::vector<std::uint8_t>& l4) {
  std::vector<std::uint8_t> frame;
  serialize(EthernetHeader{}, frame);
  serialize(ip, frame);
  frame.insert(frame.end(), l4.begin(), l4.end());
  return frame;
}

template <typename Header>
std::vector<std::uint8_t> bytes_of(const Header& h) {
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  return bytes;
}

Ipv4Header ipv4_carrying(IpProtocol protocol) {
  Ipv4Header h;
  h.total_length = 100;
  h.protocol = static_cast<std::uint8_t>(protocol);
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A000002;
  return h;
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0xBEEF;
  h.ttl = 17;
  h.protocol = static_cast<std::uint8_t>(IpProtocol::kUdp);
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A630405;

  ASSERT_EQ(bytes_of(h).size(), 20u);

  const auto parsed = parse_frame(frame_of(h, bytes_of(UdpHeader{})), 9);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->timestamp_ns, 9u);
  EXPECT_EQ(parsed->size_bytes, 1500u);
  EXPECT_EQ(parsed->protocol, IpProtocol::kUdp);
  EXPECT_EQ(parsed->src_ip, 0x0A000001u);
  EXPECT_EQ(parsed->dst_ip, 0x0A630405u);
}

TEST(Ipv4Header, SerializedChecksumValidates) {
  Ipv4Header h;
  h.total_length = 100;
  h.src_ip = 1;
  h.dst_ip = 2;
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  // Checksum over a header including its checksum field must be 0.
  EXPECT_EQ(internet_checksum(bytes), 0);
}

TEST(Ipv4Header, RejectsTruncated) {
  // An ICMP header needs nothing past the IPv4 header, so the IPv4
  // header length alone decides: 20 bytes parse, 19 do not.
  auto frame = frame_of(ipv4_carrying(IpProtocol::kIcmp), {});
  ASSERT_EQ(frame.size(), kEthernetHeaderSize + 20);
  EXPECT_TRUE(parse_frame(frame, 0).has_value());
  frame.pop_back();
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Ipv4Header, RejectsNonV4) {
  auto frame = frame_of(ipv4_carrying(IpProtocol::kIcmp), {});
  frame[kEthernetHeaderSize] = 0x65;  // version 6
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Ipv4Header, RejectsBadIhl) {
  auto frame = frame_of(ipv4_carrying(IpProtocol::kIcmp), {});
  for (std::uint8_t ihl = 0; ihl < 5; ++ihl) {
    frame[kEthernetHeaderSize] = static_cast<std::uint8_t>(0x40 | ihl);
    EXPECT_FALSE(parse_frame(frame, 0).has_value()) << "ihl " << int{ihl};
  }
}

TEST(TcpHeader, SerializeParseRoundTrip) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51234;
  h.seq = 0xDEADBEEF;
  h.ack = 0x01020304;
  h.flags = 0x18;  // PSH|ACK
  const auto bytes = bytes_of(h);
  ASSERT_EQ(bytes.size(), 20u);
  const auto parsed =
      parse_frame(frame_of(ipv4_carrying(IpProtocol::kTcp), bytes), 0);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, IpProtocol::kTcp);
  EXPECT_EQ(parsed->src_port, 443);
  EXPECT_EQ(parsed->dst_port, 51234);
}

TEST(UdpHeader, SerializeParseRoundTrip) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 5353;
  h.length = 120;
  const auto bytes = bytes_of(h);
  ASSERT_EQ(bytes.size(), 8u);
  const auto parsed =
      parse_frame(frame_of(ipv4_carrying(IpProtocol::kUdp), bytes), 0);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, IpProtocol::kUdp);
  EXPECT_EQ(parsed->src_port, 53);
  EXPECT_EQ(parsed->dst_port, 5353);
}

TEST(Ethernet, SerializeParseRoundTrip) {
  EthernetHeader h;
  h.src_mac = {1, 2, 3, 4, 5, 6};
  h.dst_mac = {7, 8, 9, 10, 11, 12};
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  ASSERT_EQ(bytes.size(), kEthernetHeaderSize);
  EXPECT_EQ(bytes[0], 7);
  EXPECT_EQ(bytes[6], 1);
  EXPECT_EQ(bytes[12], 0x08);  // EtherType IPv4, network order
  EXPECT_EQ(bytes[13], 0x00);
  // The MACs do not matter to the parser; the EtherType does.
  serialize(ipv4_carrying(IpProtocol::kIcmp), bytes);
  EXPECT_TRUE(parse_frame(bytes, 0).has_value());
  bytes[13] = 0x06;  // ARP
  EXPECT_FALSE(parse_frame(bytes, 0).has_value());
}

PacketRecord sample_record(IpProtocol protocol, std::uint32_t size) {
  PacketRecord r;
  r.timestamp_ns = 123'456'789;
  r.src_ip = 0x0A010203;
  r.dst_ip = 0x0AFF0102;
  r.src_port = 12345;
  r.dst_port = 80;
  r.protocol = protocol;
  r.size_bytes = size;
  return r;
}

TEST(Frame, BuildParseRoundTripTcp) {
  const auto record = sample_record(IpProtocol::kTcp, 1500);
  const auto frame = build_frame(record);
  EXPECT_EQ(frame.size(), kEthernetHeaderSize + 1500);
  const auto parsed = parse_frame(frame, record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
}

TEST(Frame, BuildParseRoundTripUdp) {
  const auto record = sample_record(IpProtocol::kUdp, 200);
  const auto parsed = parse_frame(build_frame(record), record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
}

TEST(Frame, RuntPacketClampedToHeaders) {
  // A 10-byte "packet" cannot hold IPv4+TCP headers; the frame builder
  // clamps to the minimum and the parsed size reflects the clamp.
  const auto record = sample_record(IpProtocol::kTcp, 10);
  const auto parsed = parse_frame(build_frame(record), record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size_bytes, 40u);
}

TEST(Frame, TruncatedCaptureStillParsesViaIpLength) {
  // Snaplen-style truncation: only the first 60 bytes captured, but the
  // IP total length carries the true size.
  const auto record = sample_record(IpProtocol::kTcp, 1400);
  auto frame = build_frame(record);
  frame.resize(60);
  const auto parsed = parse_frame(frame, record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size_bytes, 1400u);
}

TEST(Frame, NonIpv4Rejected) {
  const auto record = sample_record(IpProtocol::kTcp, 100);
  auto frame = build_frame(record);
  frame[12] = 0x86;  // EtherType IPv6
  frame[13] = 0xDD;
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Frame, TooShortRejected) {
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(parse_frame(tiny, 0).has_value());
}

TEST(Frame, IpOptionsAreSkipped) {
  // IHL > 5: the L4 header starts after the options, not at byte 20.
  for (std::uint8_t ihl = 6; ihl <= 15; ++ihl) {
    Ipv4Header ip = ipv4_carrying(IpProtocol::kUdp);
    ip.ihl = ihl;
    std::vector<std::uint8_t> l4((ihl - 5u) * 4u, 0xAB);  // options
    UdpHeader udp;
    udp.src_port = 1000 + ihl;
    udp.dst_port = 2000;
    const auto header = bytes_of(udp);
    l4.insert(l4.end(), header.begin(), header.end());
    auto frame = frame_of(ip, l4);
    const auto parsed = parse_frame(frame, 0);
    ASSERT_TRUE(parsed.has_value()) << "ihl " << int{ihl};
    EXPECT_EQ(parsed->src_port, 1000 + ihl);
    EXPECT_EQ(parsed->dst_port, 2000);
    // Cut inside the UDP header, then inside the options.
    frame.resize(frame.size() - 1);
    EXPECT_FALSE(parse_frame(frame, 0).has_value());
    frame.resize(kEthernetHeaderSize + ip.header_bytes() - 1);
    EXPECT_FALSE(parse_frame(frame, 0).has_value());
  }
}

TEST(Frame, IcmpParsesWithZeroPorts) {
  // build_frame gives an ICMP record a UDP-sized L4 area carrying the
  // record's ports; the parser reads ports only for TCP and UDP.
  auto record = sample_record(IpProtocol::kIcmp, 84);
  const auto parsed = parse_frame(build_frame(record), record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  record.src_port = 0;
  record.dst_port = 0;
  EXPECT_EQ(*parsed, record);
}

TEST(Frame, ShortTcpHeaderRejected) {
  auto frame =
      frame_of(ipv4_carrying(IpProtocol::kTcp), bytes_of(TcpHeader{}));
  EXPECT_TRUE(parse_frame(frame, 0).has_value());
  frame.pop_back();  // 19-byte TCP header
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Frame, ShortUdpHeaderRejected) {
  auto frame =
      frame_of(ipv4_carrying(IpProtocol::kUdp), bytes_of(UdpHeader{}));
  EXPECT_TRUE(parse_frame(frame, 0).has_value());
  frame.pop_back();  // 7-byte UDP header
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Frame, EveryTruncationLengthOfABuiltFrame) {
  // Each prefix parses to the full record once the Ethernet, IPv4 and
  // L4 headers fit (the IP total length carries the size), and is
  // rejected before that.
  for (const auto protocol : {IpProtocol::kTcp, IpProtocol::kUdp}) {
    const auto record = sample_record(protocol, 120);
    const auto frame = build_frame(record);
    const std::size_t headers =
        kEthernetHeaderSize + 20 + (protocol == IpProtocol::kTcp ? 20 : 8);
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      const auto parsed = parse_frame(
          std::span<const std::uint8_t>(frame).first(len),
          record.timestamp_ns);
      if (len < headers) {
        EXPECT_FALSE(parsed.has_value()) << "len " << len;
      } else {
        ASSERT_TRUE(parsed.has_value()) << "len " << len;
        EXPECT_EQ(*parsed, record) << "len " << len;
      }
    }
  }
}

}  // namespace
}  // namespace nd::packet
