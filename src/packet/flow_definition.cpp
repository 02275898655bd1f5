#include "packet/flow_definition.hpp"

#include <algorithm>

namespace nd::packet {

FlowDefinition FlowDefinition::five_tuple() {
  return FlowDefinition(FlowKeyKind::kFiveTuple, nullptr);
}

FlowDefinition FlowDefinition::destination_ip() {
  return FlowDefinition(FlowKeyKind::kDestinationIp, nullptr);
}

FlowDefinition FlowDefinition::as_pair(const AsResolver& resolver) {
  return FlowDefinition(FlowKeyKind::kAsPair, &resolver);
}

FlowDefinition FlowDefinition::network_pair(std::uint8_t prefix_len) {
  return FlowDefinition(FlowKeyKind::kNetworkPair, nullptr,
                        std::min<std::uint8_t>(prefix_len, 32));
}

}  // namespace nd::packet
