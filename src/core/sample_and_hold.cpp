#include "core/sample_and_hold.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nd::core {

SampleAndHold::SampleAndHold(const SampleAndHoldConfig& config)
    : config_(config),
      rng_(config.seed),
      memory_(config.flow_memory_entries, config.seed ^ 0x5AD0115ULL),
      tm_(DeviceInstruments::attach(config.metrics, config.metric_labels,
                                    "sample-and-hold")) {
  refresh_probability();
  skip_ = rng_.geometric(probability_);
}

void SampleAndHold::refresh_probability() {
  const double t = static_cast<double>(std::max<common::ByteCount>(
      config_.threshold, 1));
  probability_ = std::min(1.0, config_.oversampling / t);
}

void SampleAndHold::set_threshold(common::ByteCount threshold) {
  config_.threshold = std::max<common::ByteCount>(threshold, 1);
  refresh_probability();
  // Redraw the skip so the new probability takes effect immediately.
  skip_ = rng_.geometric(probability_);
}

bool SampleAndHold::sample_packet(std::uint32_t bytes) {
  // skip_ counts bytes to pass before the next sampled byte.
  if (skip_ >= bytes) {
    skip_ -= bytes;
    return false;
  }
  skip_ = rng_.geometric(probability_);
  return true;
}

void SampleAndHold::observe(const packet::FlowKey& key, std::uint32_t bytes) {
  ++packets_;
  if (tm_.enabled()) tm_.on_packet(bytes);
  if (flowmem::FlowEntry* entry = memory_.find(key)) {
    flowmem::FlowMemory::add_bytes(*entry, bytes);
    if (tm_.enabled()) tm_.on_hit();
    return;
  }
  if (!sample_packet(bytes)) return;
  flowmem::FlowEntry* entry = memory_.insert(key, interval_);
  if (entry == nullptr) {
    ++dropped_samples_;
    if (tm_.enabled()) tm_.on_insert_drop();
    return;
  }
  if (tm_.enabled()) tm_.on_insert();
  // The whole packet is counted, including bytes before the sampled one
  // (Section 7.1.1 notes the real algorithm is more accurate than the
  // byte model for exactly this reason).
  flowmem::FlowMemory::add_bytes(*entry, bytes);
}

void SampleAndHold::save_state(common::StateWriter& out) const {
  out.put_u8(1);  // layout version
  out.put_u64(config_.threshold);
  out.put_u64(skip_);
  out.put_u32(interval_);
  out.put_u64(packets_);
  out.put_u64(dropped_samples_);
  out.put_string(rng_.serialize());
  memory_.save_state(out);
}

void SampleAndHold::restore_state(common::StateReader& in) {
  if (in.u8() != 1) {
    throw common::StateError("sample-and-hold: unknown checkpoint layout");
  }
  config_.threshold = in.u64();
  refresh_probability();  // derive p from the threshold
  skip_ = in.u64();
  interval_ = in.u32();
  packets_ = in.u64();
  dropped_samples_ = in.u64();
  try {
    rng_.deserialize(in.string());
  } catch (const std::invalid_argument& error) {
    throw common::StateError(std::string("sample-and-hold: ") +
                             error.what());
  }
  memory_.restore_state(in);
}

Report SampleAndHold::end_interval() {
  Report report;
  report.interval = interval_;
  report.threshold = config_.threshold;
  report.entries_used = memory_.entries_used();

  flowmem::EndIntervalPolicy policy;
  policy.policy = config_.preserve;
  policy.threshold = config_.threshold;
  policy.early_removal_threshold = static_cast<common::ByteCount>(
      config_.early_removal_fraction *
      static_cast<double>(config_.threshold));
  report.flows.reserve(report.entries_used);
  memory_.end_interval(policy, [&](const flowmem::FlowEntry& entry) {
    report.flows.push_back(ReportedFlow{entry.key, entry.bytes_current,
                                        entry.exact_this_interval});
  });
  tm_.on_end_interval(report.entries_used, memory_.capacity(),
                      report.entries_used - memory_.entries_used(),
                      config_.threshold);

  ++interval_;
  return report;
}

}  // namespace nd::core
