// ExactOracle — per-flow ground truth with unbounded memory.
//
// Not realizable at line rate (the whole point of the paper); used by the
// evaluation harness to compute false negatives/positives and estimation
// error of the real devices.
#pragma once

#include <unordered_map>

#include "core/device.hpp"

namespace nd::baseline {

class ExactOracle final : public core::MeasurementDevice {
 public:
  ExactOracle() = default;

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override {
    ++packets_;
    bytes_[key] += bytes;
  }

  core::Report end_interval() override;

  [[nodiscard]] std::string name() const override { return "exact-oracle"; }
  [[nodiscard]] common::ByteCount threshold() const override { return 0; }
  void set_threshold(common::ByteCount) override {}
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return static_cast<std::size_t>(-1);
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return packets_;
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }

  /// Direct access to the current interval's exact sizes.
  [[nodiscard]] const std::unordered_map<packet::FlowKey, common::ByteCount,
                                         packet::FlowKeyHasher>&
  current_sizes() const {
    return bytes_;
  }

 private:
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      bytes_;
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
};

}  // namespace nd::baseline
