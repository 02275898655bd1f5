// Shared helpers for the determinism and shard equivalence tests: build
// classified streams from the synthesizer, feed them to devices and
// compare device reports bit-for-bit.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/device.hpp"
#include "packet/classified_packet.hpp"
#include "packet/flow_definition.hpp"
#include "trace/synthesizer.hpp"

namespace nd::testing {

/// Classify one synthesized interval with `definition` (packets failing
/// the pattern are dropped, exactly like eval::Driver does).
inline std::vector<packet::ClassifiedPacket> classify_interval(
    const std::vector<packet::PacketRecord>& packets,
    const packet::FlowDefinition& definition) {
  std::vector<packet::ClassifiedPacket> classified;
  classified.reserve(packets.size());
  for (const auto& packet : packets) {
    if (const auto key = definition.classify(packet)) {
      classified.push_back({*key, packet.size_bytes});
    }
  }
  return classified;
}

/// Whole trace, classified per interval.
inline std::vector<std::vector<packet::ClassifiedPacket>> classify_trace(
    const trace::TraceConfig& config,
    const packet::FlowDefinition& definition) {
  trace::TraceSynthesizer synthesizer(config);
  std::vector<std::vector<packet::ClassifiedPacket>> intervals;
  for (;;) {
    const auto packets = synthesizer.next_interval();
    if (packets.empty()) break;
    intervals.push_back(classify_interval(packets, definition));
  }
  return intervals;
}

/// Feed `packets` to `device` one at a time, in order.
inline void observe_all(core::MeasurementDevice& device,
                        const std::vector<packet::ClassifiedPacket>& packets) {
  for (const packet::ClassifiedPacket& packet : packets) {
    device.observe(packet.key, packet.bytes);
  }
}

/// Bit-for-bit report equality: same interval, threshold, usage, and the
/// same flows in the same order with identical estimates.
inline void expect_reports_equal(const core::Report& a,
                                 const core::Report& b) {
  EXPECT_EQ(a.interval, b.interval);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.entries_used, b.entries_used);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].key, b.flows[i].key) << "flow " << i;
    EXPECT_EQ(a.flows[i].estimated_bytes, b.flows[i].estimated_bytes)
        << "flow " << i;
    EXPECT_EQ(a.flows[i].exact, b.flows[i].exact) << "flow " << i;
  }
}

}  // namespace nd::testing
