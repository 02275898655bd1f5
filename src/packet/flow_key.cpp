#include "packet/flow_key.hpp"

#include "common/format.hpp"

namespace nd::packet {

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
