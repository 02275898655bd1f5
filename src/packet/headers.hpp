// On-the-wire IPv4/TCP/UDP/Ethernet header structs, their serializers,
// and the frame builder/parser.
//
// This is the substrate that lets the library consume and produce real
// packet bytes (via the pcap module) instead of only abstract records.
// All multi-byte fields are kept in host order in the structs; the
// serializers do the network-order conversion. Parsing goes straight
// from frame bytes to a PacketRecord (parse_frame), never through the
// structs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/packet.hpp"

namespace nd::packet {

inline constexpr std::size_t kEthernetHeaderSize = 14;
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

struct EthernetHeader {
  std::array<std::uint8_t, 6> dst_mac{};
  std::array<std::uint8_t, 6> src_mac{};
  std::uint16_t ether_type{kEtherTypeIpv4};
};

struct Ipv4Header {
  std::uint8_t version{4};
  std::uint8_t ihl{5};  // header length in 32-bit words
  std::uint8_t dscp_ecn{0};
  std::uint16_t total_length{0};  // header + payload, bytes
  std::uint16_t identification{0};
  std::uint16_t flags_fragment{0};
  std::uint8_t ttl{64};
  std::uint8_t protocol{static_cast<std::uint8_t>(IpProtocol::kTcp)};
  std::uint16_t header_checksum{0};
  std::uint32_t src_ip{0};
  std::uint32_t dst_ip{0};

  [[nodiscard]] std::size_t header_bytes() const {
    return static_cast<std::size_t>(ihl) * 4;
  }
};

struct TcpHeader {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint32_t seq{0};
  std::uint32_t ack{0};
  std::uint8_t data_offset{5};  // 32-bit words
  std::uint8_t flags{0};
  std::uint16_t window{65535};
  std::uint16_t checksum{0};
  std::uint16_t urgent{0};
};

struct UdpHeader {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint16_t length{0};  // header + payload
  std::uint16_t checksum{0};
};

/// RFC 1071 ones-complement checksum over a byte span.
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data);

// Serialization: append network-order bytes to `out`.
void serialize(const EthernetHeader& h, std::vector<std::uint8_t>& out);
void serialize(const Ipv4Header& h, std::vector<std::uint8_t>& out);
void serialize(const TcpHeader& h, std::vector<std::uint8_t>& out);
void serialize(const UdpHeader& h, std::vector<std::uint8_t>& out);

/// Build a complete Ethernet+IPv4+TCP/UDP frame for a PacketRecord.
/// The payload is zero-filled so the frame's IP total length equals
/// record.size_bytes (clamped to at least the header sizes). Used by the
/// pcap writer / trace exporter.
[[nodiscard]] std::vector<std::uint8_t> build_frame(const PacketRecord& record);

/// Inverse of build_frame: extract a PacketRecord from an Ethernet frame
/// in one bounds-checked pass, without copying or allocating.
/// `captured` may be shorter than the original frame (pcap snaplen); the
/// IP total-length field provides the true size. Returns nullopt for
/// non-IPv4 frames, an IHL under 5, or truncated headers (a TCP header
/// under 20 bytes or a UDP header under 8); IP options are skipped and
/// other protocols (ICMP) parse with ports 0.
[[nodiscard]] std::optional<PacketRecord> parse_frame(
    std::span<const std::uint8_t> captured,
    common::TimestampNs timestamp_ns);

}  // namespace nd::packet
