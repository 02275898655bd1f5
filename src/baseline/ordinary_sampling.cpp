#include "baseline/ordinary_sampling.hpp"

#include <algorithm>
#include <cmath>

namespace nd::baseline {

OrdinarySampling::OrdinarySampling(const OrdinarySamplingConfig& config)
    : config_(config),
      rng_(config.seed),
      memory_(config.flow_memory_entries, config.seed ^ 0x0DDBA11ULL) {
  config_.byte_sampling_probability =
      std::clamp(config_.byte_sampling_probability, 1e-12, 1.0);
  skip_ = rng_.geometric(config_.byte_sampling_probability);
}

void OrdinarySampling::observe(const packet::FlowKey& key,
                               std::uint32_t bytes) {
  ++packets_;
  // Geometric skip over the byte stream; a packet may contain several
  // sampled bytes, each contributing one "sample" (we credit the packet
  // once per sampled byte so the estimator stays unbiased).
  std::uint32_t samples_in_packet = 0;
  common::ByteCount remaining = bytes;
  while (skip_ < remaining) {
    remaining -= skip_ + 1;
    ++samples_in_packet;
    skip_ = rng_.geometric(config_.byte_sampling_probability);
  }
  skip_ -= remaining;
  if (samples_in_packet == 0) return;

  flowmem::FlowEntry* entry = memory_.find(key);
  if (entry == nullptr) {
    entry = memory_.insert(key, interval_);
    if (entry == nullptr) return;  // SRAM full: sample lost
  }
  flowmem::FlowMemory::add_bytes(*entry, samples_in_packet);
}

core::Report OrdinarySampling::end_interval() {
  core::Report report;
  report.interval = interval_;
  report.entries_used = memory_.entries_used();
  const double scale = 1.0 / config_.byte_sampling_probability;
  memory_.end_interval(
      flowmem::EndIntervalPolicy{}, [&](const flowmem::FlowEntry& entry) {
        report.flows.push_back(core::ReportedFlow{
            entry.key,
            static_cast<common::ByteCount>(
                static_cast<double>(entry.bytes_current) * scale),
            /*exact=*/false});
      });
  ++interval_;
  return report;
}

}  // namespace nd::baseline
