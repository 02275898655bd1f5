// Smallest-counter eviction — the first strawman of Section 3.
//
// "When a packet arrives with a flow ID not in the flow memory, we could
// make place for the new flow by evicting the flow with the smallest
// measured traffic. While this works well on traces, it is possible to
// provide counter examples where a large flow is not measured because it
// keeps being expelled from the flow memory before its counter becomes
// large enough."
//
// Implemented with an ordered index by counter value so eviction of the
// minimum is O(log M). The adversarial test in tests/baseline
// demonstrates the paper's counterexample.
#pragma once

#include <map>
#include <unordered_map>

#include "core/device.hpp"

namespace nd::baseline {

struct SmallestCounterEvictionConfig {
  std::size_t flow_memory_entries{4096};
};

class SmallestCounterEviction final : public core::MeasurementDevice {
 public:
  explicit SmallestCounterEviction(
      const SmallestCounterEvictionConfig& config)
      : config_(config) {}

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  core::Report end_interval() override;

  [[nodiscard]] std::string name() const override {
    return "smallest-counter-eviction";
  }
  [[nodiscard]] common::ByteCount threshold() const override { return 0; }
  void set_threshold(common::ByteCount) override {}
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return config_.flow_memory_entries;
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return accesses_;
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  using ByCount = std::multimap<common::ByteCount, packet::FlowKey>;

  struct Slot {
    common::ByteCount bytes{0};
    ByCount::iterator index_it;
  };

  SmallestCounterEvictionConfig config_;
  std::unordered_map<packet::FlowKey, Slot, packet::FlowKeyHasher> table_;
  ByCount by_count_;
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
  std::uint64_t accesses_{0};
  std::uint64_t evictions_{0};
};

}  // namespace nd::baseline
