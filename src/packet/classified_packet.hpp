// A packet after flow classification: its FlowKey and its size.
//
// eval::Driver classifies each interval once into a buffer of these and
// replays that buffer into every device through observe(); the test
// support helpers build the same per-interval streams.
#pragma once

#include <cstdint>

#include "packet/flow_key.hpp"

namespace nd::packet {

struct ClassifiedPacket {
  FlowKey key;
  std::uint32_t bytes{0};
};

}  // namespace nd::packet
