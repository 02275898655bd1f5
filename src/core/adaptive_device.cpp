#include "core/adaptive_device.hpp"

namespace nd::core {

AdaptiveDevice::AdaptiveDevice(std::unique_ptr<MeasurementDevice> device,
                               const ThresholdAdaptorConfig& adaptor_config)
    : device_(std::move(device)), adaptor_(adaptor_config) {}

void AdaptiveDevice::save_state(common::StateWriter& out) const {
  out.put_u8(1);  // layout version
  // Retired delegation flag: always 0, kept so the layout is unchanged.
  out.put_bool(false);
  adaptor_.save_state(out);
  device_->save_state(out);
}

void AdaptiveDevice::restore_state(common::StateReader& in) {
  if (in.u8() != 1) {
    throw common::StateError("adaptive device: unknown checkpoint layout");
  }
  if (in.boolean()) {
    throw common::StateError(
        "adaptive device: checkpoint delegates to per-shard adaptors; "
        "resume it with ShardedDeviceConfig::adaptor");
  }
  adaptor_.restore_state(in);
  device_->restore_state(in);
}

Report AdaptiveDevice::end_interval() {
  Report report = device_->end_interval();
  const common::ByteCount next = adaptor_.update(
      device_->threshold(), report.entries_used,
      device_->flow_memory_capacity());
  device_->set_threshold(next);
  return report;
}

}  // namespace nd::core
