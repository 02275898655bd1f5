// AdaptiveDevice: a measurement device under closed-loop threshold
// control — the "complete traffic measurement device" of Section 7.2.
//
// Wrapping a ShardedDevice delegates control to the sharded path: the
// wrapper enables one private adaptor per shard on the inner device
// (heterogeneous thresholds, Section 6 run per replica) instead of
// running a single global adaptor whose set_threshold would clobber the
// per-shard state every interval.
#pragma once

#include <memory>
#include <utility>

#include "core/device.hpp"
#include "core/threshold_adaptor.hpp"

namespace nd::core {

class ShardedDevice;

class AdaptiveDevice final : public MeasurementDevice {
 public:
  AdaptiveDevice(std::unique_ptr<MeasurementDevice> device,
                 const ThresholdAdaptorConfig& adaptor_config);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override {
    device_->observe(key, bytes);
  }

  Report end_interval() override;

  [[nodiscard]] std::string name() const override {
    return device_->name() + " (adaptive)";
  }
  [[nodiscard]] common::ByteCount threshold() const override {
    return device_->threshold();
  }
  void set_threshold(common::ByteCount threshold) override {
    device_->set_threshold(threshold);
  }
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return device_->flow_memory_capacity();
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return device_->memory_accesses();
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return device_->packets_processed();
  }

  /// Checkpointable iff the wrapped device is; the global adaptor's
  /// steering state rides along (per-shard adaptors are the inner
  /// ShardedDevice's own state).
  [[nodiscard]] bool can_checkpoint() const override {
    return device_->can_checkpoint();
  }
  void save_state(common::StateWriter& out) const override;
  void restore_state(common::StateReader& in) override;

  [[nodiscard]] MeasurementDevice& inner() { return *device_; }
  /// Non-null when threshold control is delegated to per-shard adaptors
  /// on the wrapped ShardedDevice.
  [[nodiscard]] const ShardedDevice* sharded() const { return sharded_; }

 private:
  std::unique_ptr<MeasurementDevice> device_;
  /// Global adaptor; unused (and never updated) when sharded_ is set.
  ThresholdAdaptor adaptor_;
  ShardedDevice* sharded_{nullptr};
};

}  // namespace nd::core
