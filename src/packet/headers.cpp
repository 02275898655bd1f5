#include "packet/headers.hpp"

#include <algorithm>

namespace nd::packet {

using common::append_be16;
using common::append_be32;

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(common::load_be16(data.data() + i));
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
  append_be16(out, h.ether_type);
}

void serialize(const Ipv4Header& h, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::uint8_t>((h.version << 4) | (h.ihl & 0x0F)));
  out.push_back(h.dscp_ecn);
  append_be16(out, h.total_length);
  append_be16(out, h.identification);
  append_be16(out, h.flags_fragment);
  out.push_back(h.ttl);
  out.push_back(h.protocol);
  append_be16(out, 0);  // checksum placeholder
  append_be32(out, h.src_ip);
  append_be32(out, h.dst_ip);
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(out.data() + start, out.size() - start));
  out[start + 10] = static_cast<std::uint8_t>(csum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(csum & 0xFF);
}

void serialize(const TcpHeader& h, std::vector<std::uint8_t>& out) {
  append_be16(out, h.src_port);
  append_be16(out, h.dst_port);
  append_be32(out, h.seq);
  append_be32(out, h.ack);
  out.push_back(static_cast<std::uint8_t>(h.data_offset << 4));
  out.push_back(h.flags);
  append_be16(out, h.window);
  append_be16(out, h.checksum);
  append_be16(out, h.urgent);
}

void serialize(const UdpHeader& h, std::vector<std::uint8_t>& out) {
  append_be16(out, h.src_port);
  append_be16(out, h.dst_port);
  append_be16(out, h.length);
  append_be16(out, h.checksum);
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

}  // namespace nd::packet
