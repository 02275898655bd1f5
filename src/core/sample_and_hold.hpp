// Sample and hold (Section 3.1) with the Section 3.3 improvements.
//
// Every packet first looks up its flow in the flow memory; a hit updates
// the counter with the full packet size. A miss samples the packet at
// the *byte* level with probability 1-(1-p)^s and, if sampled, creates an
// entry (counting the whole packet, which is why the method never
// overestimates yet is slightly more accurate than the byte model).
//
// Byte-level sampling is implemented by geometric skip counting: draw the
// number of bytes until the next sampled byte once, then subtract packet
// sizes — O(1) per packet and *exactly* equivalent to flipping a
// Bernoulli(p) coin per byte, so no per-size probability table is needed.
// Reported sizes are the held counts c, a lower bound (the estimate
// never overcounts, which accounting relies on).
//
// Improvements:
//   * preserve entries (kPreserve) — long-lived large flows measured
//     exactly from their second interval on;
//   * early removal (kEarlyRemoval) — new entries below R = fraction*T
//     are dropped at interval end, reclaiming memory from false
//     positives.
#pragma once

#include "common/rng.hpp"
#include "core/device.hpp"
#include "core/device_telemetry.hpp"
#include "flowmem/flow_memory.hpp"

namespace nd::core {

struct SampleAndHoldConfig {
  std::size_t flow_memory_entries{4096};
  /// Large-flow threshold T in bytes per interval.
  common::ByteCount threshold{1'000'000};
  /// Oversampling factor O; the byte sampling probability is p = O / T.
  double oversampling{4.0};
  /// Entry-preservation policy across intervals.
  flowmem::PreservePolicy preserve{flowmem::PreservePolicy::kClear};
  /// R = early_removal_fraction * T (paper finds 15% a good value).
  double early_removal_fraction{0.15};
  std::uint64_t seed{1};
  /// Export runtime telemetry into this registry (not owned; must
  /// outlive the device). Null — the default — compiles the hot path
  /// down to one predictable branch per packet.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Extra labels for every series (e.g. {{"shard", "3"}}).
  telemetry::Labels metric_labels{};
};

class SampleAndHold final : public MeasurementDevice {
 public:
  explicit SampleAndHold(const SampleAndHoldConfig& config);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  Report end_interval() override;

  [[nodiscard]] std::string name() const override { return "sample-and-hold"; }
  [[nodiscard]] common::ByteCount threshold() const override {
    return config_.threshold;
  }
  void set_threshold(common::ByteCount threshold) override;
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return config_.flow_memory_entries;
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return memory_.memory_accesses();
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }

  /// Full-state checkpointing: threshold, geometric-skip state, RNG
  /// stream, and the flow memory's exact slot layout round-trip, so a
  /// resumed device replays the remaining packets bit for bit.
  [[nodiscard]] bool can_checkpoint() const override { return true; }
  void save_state(common::StateWriter& out) const override;
  void restore_state(common::StateReader& in) override;

  /// Current byte sampling probability p = O / T.
  [[nodiscard]] double sampling_probability() const { return probability_; }
  /// Packets lost because the flow memory was full when sampled.
  [[nodiscard]] std::uint64_t dropped_samples() const {
    return dropped_samples_;
  }

 private:
  void refresh_probability();
  [[nodiscard]] bool sample_packet(std::uint32_t bytes);

  SampleAndHoldConfig config_;
  common::Rng rng_;
  flowmem::FlowMemory memory_;
  DeviceInstruments tm_;
  double probability_{0.0};
  /// Bytes remaining until the next sampled byte (geometric skip state).
  common::ByteCount skip_{0};
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
  std::uint64_t dropped_samples_{0};
};

}  // namespace nd::core
