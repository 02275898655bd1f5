#include "packet/flow_key.hpp"

#include <array>

#include "common/format.hpp"
#include "hash/hash.hpp"

namespace nd::packet {

namespace {

std::uint64_t fingerprint_fields(FlowKeyKind kind, std::uint32_t a,
                                 std::uint32_t b, std::uint16_t c,
                                 std::uint16_t d, IpProtocol proto) {
  // Pack the discriminating fields into two words and mix. The kind tag
  // participates so a dst-IP key never collides with a 5-tuple key for
  // the same address.
  const std::uint64_t w0 =
      (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  const std::uint64_t w1 = (static_cast<std::uint64_t>(c) << 48) |
                           (static_cast<std::uint64_t>(d) << 32) |
                           (static_cast<std::uint64_t>(proto) << 8) |
                           static_cast<std::uint64_t>(kind);
  return hash::splitmix64(hash::splitmix64(w0) ^ w1);
}

}  // namespace

const char* to_string(FlowKeyKind kind) {
  switch (kind) {
    case FlowKeyKind::kFiveTuple:
      return "5-tuple";
    case FlowKeyKind::kDestinationIp:
      return "destination IP";
    case FlowKeyKind::kAsPair:
      return "AS pair";
    case FlowKeyKind::kNetworkPair:
      return "network pair";
  }
  return "unknown";
}

FlowKey::FlowKey(FlowKeyKind kind, std::uint32_t a, std::uint32_t b,
                 std::uint16_t c, std::uint16_t d, IpProtocol proto)
    : kind_(kind),
      a_(a),
      b_(b),
      c_(c),
      d_(d),
      proto_(proto),
      fingerprint_(fingerprint_fields(kind, a, b, c, d, proto)) {}

FlowKey FlowKey::five_tuple(std::uint32_t src_ip, std::uint32_t dst_ip,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            IpProtocol protocol) {
  return FlowKey(FlowKeyKind::kFiveTuple, src_ip, dst_ip, src_port, dst_port,
                 protocol);
}

FlowKey FlowKey::destination_ip(std::uint32_t dst_ip) {
  return FlowKey(FlowKeyKind::kDestinationIp, 0, dst_ip, 0, 0,
                 IpProtocol::kTcp);
}

FlowKey FlowKey::as_pair(std::uint32_t src_as, std::uint32_t dst_as) {
  return FlowKey(FlowKeyKind::kAsPair, src_as, dst_as, 0, 0, IpProtocol::kTcp);
}

FlowKey FlowKey::network_pair(std::uint32_t src_network,
                              std::uint32_t dst_network,
                              std::uint8_t prefix_len) {
  return FlowKey(FlowKeyKind::kNetworkPair, src_network, dst_network,
                 prefix_len, 0, IpProtocol::kTcp);
}

void save_flow_key(common::StateWriter& out, const FlowKey& key) {
  out.put_u8(static_cast<std::uint8_t>(key.kind()));
  out.put_u32(key.src_ip());
  out.put_u32(key.dst_ip());
  out.put_u16(key.src_port());
  out.put_u16(key.dst_port());
  out.put_u8(static_cast<std::uint8_t>(key.protocol()));
}

FlowKey load_flow_key(common::StateReader& in) {
  const auto kind = static_cast<FlowKeyKind>(in.u8());
  const std::uint32_t a = in.u32();
  const std::uint32_t b = in.u32();
  const std::uint16_t c = in.u16();
  const std::uint16_t d = in.u16();
  const auto proto = static_cast<IpProtocol>(in.u8());
  switch (kind) {
    case FlowKeyKind::kFiveTuple:
      return FlowKey::five_tuple(a, b, c, d, proto);
    case FlowKeyKind::kDestinationIp:
      return FlowKey::destination_ip(b);
    case FlowKeyKind::kAsPair:
      return FlowKey::as_pair(a, b);
    case FlowKeyKind::kNetworkPair:
      return FlowKey::network_pair(a, b, static_cast<std::uint8_t>(c));
  }
  throw common::StateError("flow key: unknown kind tag in checkpoint");
}

std::string FlowKey::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void FlowKey::append_to(std::string& out) const {
  switch (kind_) {
    case FlowKeyKind::kFiveTuple:
      common::append_ipv4(out, a_);
      out.push_back(':');
      common::append_uint(out, c_);
      out.append(" -> ");
      common::append_ipv4(out, b_);
      out.push_back(':');
      common::append_uint(out, d_);
      out.append(proto_ == IpProtocol::kTcp   ? " tcp"
                 : proto_ == IpProtocol::kUdp ? " udp"
                                              : " icmp");
      return;
    case FlowKeyKind::kDestinationIp:
      out.append("dst ");
      common::append_ipv4(out, b_);
      return;
    case FlowKeyKind::kAsPair:
      out.append("AS");
      common::append_uint(out, a_);
      out.append(" -> AS");
      common::append_uint(out, b_);
      return;
    case FlowKeyKind::kNetworkPair:
      common::append_ipv4(out, a_);
      out.push_back('/');
      common::append_uint(out, c_);
      out.append(" -> ");
      common::append_ipv4(out, b_);
      out.push_back('/');
      common::append_uint(out, c_);
      return;
  }
  out.push_back('?');
}

}  // namespace nd::packet
