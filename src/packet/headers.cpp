#include "packet/headers.hpp"

#include <algorithm>

namespace nd::packet {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t off) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(d[off]) << 8) |
                                    d[off + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t off) {
  return (static_cast<std::uint32_t>(d[off]) << 24) |
         (static_cast<std::uint32_t>(d[off + 1]) << 16) |
         (static_cast<std::uint32_t>(d[off + 2]) << 8) |
         static_cast<std::uint32_t>(d[off + 3]);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(get_u16(data, i));
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

void serialize(const EthernetHeader& h, std::vector<std::uint8_t>& out) {
  out.insert(out.end(), h.dst_mac.begin(), h.dst_mac.end());
  out.insert(out.end(), h.src_mac.begin(), h.src_mac.end());
  put_u16(out, h.ether_type);
}

void serialize(const Ipv4Header& h, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::uint8_t>((h.version << 4) | (h.ihl & 0x0F)));
  out.push_back(h.dscp_ecn);
  put_u16(out, h.total_length);
  put_u16(out, h.identification);
  put_u16(out, h.flags_fragment);
  out.push_back(h.ttl);
  out.push_back(h.protocol);
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, h.src_ip);
  put_u32(out, h.dst_ip);
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(out.data() + start, out.size() - start));
  out[start + 10] = static_cast<std::uint8_t>(csum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(csum & 0xFF);
}

void serialize(const TcpHeader& h, std::vector<std::uint8_t>& out) {
  put_u16(out, h.src_port);
  put_u16(out, h.dst_port);
  put_u32(out, h.seq);
  put_u32(out, h.ack);
  out.push_back(static_cast<std::uint8_t>(h.data_offset << 4));
  out.push_back(h.flags);
  put_u16(out, h.window);
  put_u16(out, h.checksum);
  put_u16(out, h.urgent);
}

void serialize(const UdpHeader& h, std::vector<std::uint8_t>& out) {
  put_u16(out, h.src_port);
  put_u16(out, h.dst_port);
  put_u16(out, h.length);
  put_u16(out, h.checksum);
}

std::vector<std::uint8_t> build_frame(const PacketRecord& record) {
  const bool tcp = record.protocol == IpProtocol::kTcp;
  const std::size_t l4_size = tcp ? 20u : 8u;
  // record.size_bytes is the IP-layer size; clamp so headers always fit
  // and the length field stays within 16 bits.
  const std::size_t ip_total = std::clamp<std::size_t>(
      record.size_bytes, 20 + l4_size, 65535);

  std::vector<std::uint8_t> frame;
  frame.reserve(kEthernetHeaderSize + ip_total);

  serialize(EthernetHeader{}, frame);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(ip_total);
  ip.protocol = static_cast<std::uint8_t>(record.protocol);
  ip.src_ip = record.src_ip;
  ip.dst_ip = record.dst_ip;
  serialize(ip, frame);

  if (tcp) {
    TcpHeader t;
    t.src_port = record.src_port;
    t.dst_port = record.dst_port;
    serialize(t, frame);
  } else {
    UdpHeader u;
    u.src_port = record.src_port;
    u.dst_port = record.dst_port;
    u.length = static_cast<std::uint16_t>(ip_total - 20);
    serialize(u, frame);
  }

  frame.resize(kEthernetHeaderSize + ip_total, 0);
  return frame;
}

std::optional<PacketRecord> parse_frame(std::span<const std::uint8_t> captured,
                                        common::TimestampNs timestamp_ns) {
  // One pass over the frame bytes; each read is preceded by the bounds
  // check that covers it. Ethernet then a minimal IPv4 header is the
  // fixed prefix every accepted frame has.
  constexpr std::size_t kIpv4MinHeader = 20;
  const std::size_t size = captured.size();
  if (size < kEthernetHeaderSize + kIpv4MinHeader) return std::nullopt;
  if (get_u16(captured, 12) != kEtherTypeIpv4) return std::nullopt;

  const std::size_t ip = kEthernetHeaderSize;
  const std::uint8_t version_ihl = captured[ip];
  const std::size_t ip_header_bytes =
      static_cast<std::size_t>(version_ihl & 0x0F) * 4;
  if ((version_ihl >> 4) != 4 || ip_header_bytes < kIpv4MinHeader) {
    return std::nullopt;
  }
  const std::size_t l4 = ip + ip_header_bytes;
  if (size < l4) return std::nullopt;

  PacketRecord record;
  record.timestamp_ns = timestamp_ns;
  record.size_bytes = get_u16(captured, ip + 2);
  const std::uint8_t protocol = captured[ip + 9];
  record.protocol = static_cast<IpProtocol>(protocol);
  record.src_ip = get_u32(captured, ip + 12);
  record.dst_ip = get_u32(captured, ip + 16);

  // TCP and UDP must carry their full fixed header; any other protocol
  // (ICMP) keeps ports 0.
  std::size_t l4_header_bytes = 0;
  if (protocol == static_cast<std::uint8_t>(IpProtocol::kTcp)) {
    l4_header_bytes = 20;
  } else if (protocol == static_cast<std::uint8_t>(IpProtocol::kUdp)) {
    l4_header_bytes = 8;
  } else {
    return record;
  }
  if (size < l4 + l4_header_bytes) return std::nullopt;
  record.src_port = get_u16(captured, l4);
  record.dst_port = get_u16(captured, l4 + 2);
  return record;
}

}  // namespace nd::packet
