#include "baseline/sampled_netflow.hpp"

#include <algorithm>

namespace nd::baseline {

SampledNetFlow::SampledNetFlow(const SampledNetFlowConfig& config)
    : config_(config), rng_(config.seed) {
  config_.sampling_divisor = std::max<std::uint32_t>(
      config_.sampling_divisor, 1);
}

void SampledNetFlow::observe(const packet::FlowKey& key,
                             std::uint32_t bytes) {
  ++packets_;
  bool sampled = false;
  if (config_.deterministic) {
    sampled = ++phase_ >= config_.sampling_divisor;
    if (sampled) phase_ = 0;
  } else {
    sampled = rng_.bernoulli(1.0 / config_.sampling_divisor);
  }
  if (!sampled) return;
  sampled_bytes_[key] += bytes;
  ++dram_accesses_;
  high_water_ = std::max(high_water_, sampled_bytes_.size());
}

core::Report SampledNetFlow::end_interval() {
  core::Report report;
  report.interval = interval_;
  report.entries_used = sampled_bytes_.size();
  report.flows.reserve(sampled_bytes_.size());
  for (const auto& [key, bytes] : sampled_bytes_) {
    // Scale up by the sampling divisor; the estimate is unbiased but is
    // NOT a lower bound on actual usage.
    report.flows.push_back(core::ReportedFlow{
        key, bytes * config_.sampling_divisor, /*exact=*/false});
  }
  sampled_bytes_.clear();
  ++interval_;
  return report;
}

}  // namespace nd::baseline
