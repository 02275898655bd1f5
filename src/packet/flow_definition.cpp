#include "packet/flow_definition.hpp"

#include <algorithm>

namespace nd::packet {

FlowDefinition FlowDefinition::five_tuple(PacketPattern pattern) {
  return FlowDefinition(FlowKeyKind::kFiveTuple, pattern, nullptr);
}

FlowDefinition FlowDefinition::destination_ip(PacketPattern pattern) {
  return FlowDefinition(FlowKeyKind::kDestinationIp, pattern, nullptr);
}

FlowDefinition FlowDefinition::as_pair(const AsResolver& resolver,
                                       PacketPattern pattern) {
  return FlowDefinition(FlowKeyKind::kAsPair, pattern, &resolver);
}

FlowDefinition FlowDefinition::network_pair(std::uint8_t prefix_len,
                                            PacketPattern pattern) {
  return FlowDefinition(FlowKeyKind::kNetworkPair, pattern, nullptr,
                        std::min<std::uint8_t>(prefix_len, 32));
}

}  // namespace nd::packet
