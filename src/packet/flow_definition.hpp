// Flow definitions: the identifier function of Section 1.1.
//
// "A flow is generically defined by an optional pattern (which defines
// which packets we will focus on) and an identifier (values for a set of
// specified header fields)." Every configuration here measures all
// packets, so a FlowDefinition is the identifier alone: it extracts the
// FlowKey. The AS-pair definition consults an AsResolver (the identifier
// may be "a function of the header field values ... using prefixes
// instead of addresses based on a mapping using route tables"); a packet
// whose endpoints it cannot resolve gets no key.
#pragma once

#include <optional>

#include "packet/as_resolver.hpp"
#include "packet/flow_key.hpp"
#include "packet/packet.hpp"

namespace nd::packet {

class FlowDefinition {
 public:
  /// 5-tuple flows (NetFlow-like granularity).
  [[nodiscard]] static FlowDefinition five_tuple();

  /// Destination-IP flows (DoS victim detection).
  [[nodiscard]] static FlowDefinition destination_ip();

  /// AS-pair flows; `resolver` must outlive the definition.
  [[nodiscard]] static FlowDefinition as_pair(const AsResolver& resolver);

  /// Source/destination network-prefix pairs at `prefix_len` bits (the
  /// Section 1.1 traffic-matrix definition without a route table).
  [[nodiscard]] static FlowDefinition network_pair(std::uint8_t prefix_len);

  [[nodiscard]] FlowKeyKind kind() const { return kind_; }

  /// Extract the flow key, or nullopt when AS resolution fails for
  /// either endpoint. Inline: it runs once per packet; only the AS-pair
  /// lookup leaves the caller.
  [[nodiscard]] std::optional<FlowKey> classify(
      const PacketRecord& packet) const {
    switch (kind_) {
      case FlowKeyKind::kFiveTuple:
        return FlowKey::five_tuple(packet.src_ip, packet.dst_ip,
                                   packet.src_port, packet.dst_port,
                                   packet.protocol);
      case FlowKeyKind::kDestinationIp:
        return FlowKey::destination_ip(packet.dst_ip);
      case FlowKeyKind::kAsPair: {
        const auto src_as = resolver_->resolve(packet.src_ip);
        const auto dst_as = resolver_->resolve(packet.dst_ip);
        if (!src_as || !dst_as) return std::nullopt;
        return FlowKey::as_pair(*src_as, *dst_as);
      }
      case FlowKeyKind::kNetworkPair: {
        const std::uint32_t mask =
            prefix_len_ == 0 ? 0 : ~std::uint32_t{0} << (32 - prefix_len_);
        return FlowKey::network_pair(packet.src_ip & mask,
                                     packet.dst_ip & mask, prefix_len_);
      }
    }
    return std::nullopt;
  }

 private:
  FlowDefinition(FlowKeyKind kind, const AsResolver* resolver,
                 std::uint8_t prefix_len = 0)
      : kind_(kind), resolver_(resolver), prefix_len_(prefix_len) {}

  FlowKeyKind kind_;
  const AsResolver* resolver_;  // non-owning; only set for kAsPair
  std::uint8_t prefix_len_;     // only used for kNetworkPair
};

}  // namespace nd::packet
