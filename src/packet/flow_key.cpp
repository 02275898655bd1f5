#include "packet/flow_key.hpp"

#include <cstring>

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

namespace {

/// Copies a string literal without its terminator.
template <std::size_t N>
char* write_text(char* out, const char (&text)[N]) {
  std::memcpy(out, text, N - 1);
  return out + N - 1;
}

}  // namespace

std::string FlowKey::to_string() const {
  char buf[kMaxChars + common::kWriteSlack];
  return std::string(buf, write_to(buf));
}

char* FlowKey::write_to(char* out) const {
  switch (kind_) {
    case FlowKeyKind::kFiveTuple:
      out = common::write_ipv4(out, a_);
      *out++ = ':';
      out = common::write_uint(out, c_);
      out = write_text(out, " -> ");
      out = common::write_ipv4(out, b_);
      *out++ = ':';
      out = common::write_uint(out, d_);
      switch (proto_) {
        case IpProtocol::kTcp:
          return write_text(out, " tcp");
        case IpProtocol::kUdp:
          return write_text(out, " udp");
        default:
          return write_text(out, " icmp");
      }
    case FlowKeyKind::kDestinationIp:
      return common::write_ipv4(write_text(out, "dst "), b_);
    case FlowKeyKind::kAsPair:
      out = common::write_uint(write_text(out, "AS"), a_);
      return common::write_uint(write_text(out, " -> AS"), b_);
    case FlowKeyKind::kNetworkPair:
      out = common::write_ipv4(out, a_);
      *out++ = '/';
      out = common::write_uint(out, c_);
      out = write_text(out, " -> ");
      out = common::write_ipv4(out, b_);
      *out++ = '/';
      return common::write_uint(out, c_);
  }
  *out++ = '?';
  return out;
}

}  // namespace nd::packet
