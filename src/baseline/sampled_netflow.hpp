// Sampled NetFlow — the state of the art the paper compares against.
//
// Model (Sections 2 and 5.2): packets are sampled 1-in-x (x = 16 for the
// paper's OC-48 experiments); a sampled packet updates (or creates) a
// per-flow record in large, slow DRAM, so the flow table is effectively
// unbounded. The flow's traffic is estimated as (sampled bytes) * x.
// Like the paper, we normalize NetFlow to report after every measurement
// interval. Estimates can over- or under-shoot the true size — NetFlow
// provides no lower-bound guarantee (Section 5.2, point iii).
#pragma once

#include <unordered_map>

#include "common/rng.hpp"
#include "core/device.hpp"

namespace nd::baseline {

struct SampledNetFlowConfig {
  /// Sample 1 in `sampling_divisor` packets.
  std::uint32_t sampling_divisor{16};
  /// Random (probabilistic) vs deterministic every-xth sampling. Cisco
  /// implements periodic sampling; the paper's analysis treats it as
  /// random. Both are provided; random is the default.
  bool deterministic{false};
  std::uint64_t seed{1};
};

class SampledNetFlow final : public core::MeasurementDevice {
 public:
  explicit SampledNetFlow(const SampledNetFlowConfig& config);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  core::Report end_interval() override;

  [[nodiscard]] std::string name() const override {
    return "sampled-netflow(1/" + std::to_string(config_.sampling_divisor) +
           ")";
  }
  [[nodiscard]] common::ByteCount threshold() const override { return 0; }
  void set_threshold(common::ByteCount) override {}
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return static_cast<std::size_t>(-1);  // unbounded DRAM
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return dram_accesses_;
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }

  [[nodiscard]] std::size_t high_water_entries() const {
    return high_water_;
  }

 private:
  SampledNetFlowConfig config_;
  common::Rng rng_;
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      sampled_bytes_;
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
  std::uint64_t dram_accesses_{0};
  std::uint32_t phase_{0};  // for deterministic 1-in-x
  std::size_t high_water_{0};
};

}  // namespace nd::baseline
