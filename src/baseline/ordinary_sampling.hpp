// Ordinary (classical) random sampling in bounded SRAM — the strawman of
// Section 3 and the "Sampling" column of Table 1.
//
// Bytes are sampled with probability p; a sampled packet updates (or
// creates) a flow entry holding only the sampled bytes, and the estimate
// scales by 1/p. Unlike sample and hold, packets of flows already in the
// table are NOT counted unless they are themselves sampled — which is
// exactly why its relative error scales as 1/sqrt(M) instead of 1/M.
#pragma once

#include "common/rng.hpp"
#include "core/device.hpp"
#include "flowmem/flow_memory.hpp"

namespace nd::baseline {

struct OrdinarySamplingConfig {
  std::size_t flow_memory_entries{4096};
  /// Byte sampling probability p. Choose p = M / C so the expected
  /// number of entries matches the memory budget (Section 5.1).
  double byte_sampling_probability{1e-4};
  std::uint64_t seed{1};
};

class OrdinarySampling final : public core::MeasurementDevice {
 public:
  explicit OrdinarySampling(const OrdinarySamplingConfig& config);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  core::Report end_interval() override;

  [[nodiscard]] std::string name() const override {
    return "ordinary-sampling";
  }
  [[nodiscard]] common::ByteCount threshold() const override { return 0; }
  void set_threshold(common::ByteCount) override {}
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return config_.flow_memory_entries;
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return memory_.memory_accesses();
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }

 private:
  OrdinarySamplingConfig config_;
  common::Rng rng_;
  flowmem::FlowMemory memory_;
  common::ByteCount skip_{0};
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
};

}  // namespace nd::baseline
