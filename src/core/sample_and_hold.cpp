#include "core/sample_and_hold.hpp"

#include <algorithm>
#include <cmath>
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
  if (!config_.byte_exact_sampling) {
    // The Section 3.1 precomputed table: ps = 1-(1-p)^s per packet
    // size. 1500 entries of SRAM on the chip; a vector here.
    packet_probability_.resize(1501);
    const double log1mp = std::log1p(-std::min(probability_, 1.0 - 1e-15));
    for (std::size_t s = 0; s <= 1500; ++s) {
      packet_probability_[s] =
          probability_ >= 1.0
              ? 1.0
              : 1.0 - std::exp(static_cast<double>(s) * log1mp);
    }
  }
}

void SampleAndHold::set_threshold(common::ByteCount threshold) {
  config_.threshold = std::max<common::ByteCount>(threshold, 1);
  refresh_probability();
  // Redraw the skip so the new probability takes effect immediately.
  skip_ = rng_.geometric(probability_);
}

bool SampleAndHold::sample_packet(std::uint32_t bytes) {
  if (config_.byte_exact_sampling) {
    // skip_ counts bytes to pass before the next sampled byte.
    if (skip_ >= bytes) {
      skip_ -= bytes;
      return false;
    }
    skip_ = rng_.geometric(probability_);
    return true;
  }
  const double ps =
      bytes < packet_probability_.size()
          ? packet_probability_[bytes]
          : 1.0 - std::pow(1.0 - probability_,
                           static_cast<double>(bytes));
  return rng_.bernoulli(ps);
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
  refresh_probability();  // derive p (and the table) from the threshold
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

  const auto correction = static_cast<common::ByteCount>(
      config_.add_sampling_correction && probability_ > 0.0
          ? 1.0 / probability_
          : 0.0);
  report.flows.reserve(report.entries_used);
  memory_.for_each([&](const flowmem::FlowEntry& entry) {
    ReportedFlow flow;
    flow.key = entry.key;
    flow.exact = entry.exact_this_interval;
    flow.estimated_bytes =
        entry.bytes_current + (entry.exact_this_interval ? 0 : correction);
    report.flows.push_back(flow);
  });

  flowmem::EndIntervalPolicy policy;
  policy.policy = config_.preserve;
  policy.threshold = config_.threshold;
  policy.early_removal_threshold = static_cast<common::ByteCount>(
      config_.early_removal_fraction *
      static_cast<double>(config_.threshold));
  memory_.end_interval(policy);
  tm_.on_end_interval(report.entries_used, memory_.capacity(),
                      report.entries_used - memory_.entries_used(),
                      config_.threshold);

  ++interval_;
  return report;
}

}  // namespace nd::core
