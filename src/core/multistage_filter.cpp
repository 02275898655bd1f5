#include "core/multistage_filter.hpp"

#include <algorithm>

namespace nd::core {

MultistageFilter::MultistageFilter(const MultistageFilterConfig& config)
    : config_(config),
      memory_(config.flow_memory_entries, config.seed ^ 0xF117E2ULL),
      tm_(DeviceInstruments::attach(config.metrics, config.metric_labels,
                                    config.serial
                                        ? "serial-multistage-filter"
                                        : "multistage-filter")),
      bucket_scratch_(config.depth) {
  if (config_.metrics != nullptr) {
    telemetry::Labels labels = config_.metric_labels;
    labels.emplace_back("device", config_.serial
                                      ? "serial-multistage-filter"
                                      : "multistage-filter");
    tm_shielded_ =
        &config_.metrics->counter("nd_filter_shielded_total", labels);
    tm_stage_pass_.reserve(config_.depth);
    for (std::uint32_t d = 0; d < config_.depth; ++d) {
      telemetry::Labels stage_labels = labels;
      stage_labels.emplace_back("stage", std::to_string(d));
      tm_stage_pass_.push_back(&config_.metrics->counter(
          "nd_filter_stage_pass_total", stage_labels));
    }
    stage_pass_tally_.assign(config_.depth, 0);
  }
  hash::HashFamily family(config_.seed, config_.hash_kind);
  std::vector<hash::StageHash> stages;
  stages.reserve(config_.depth);
  for (std::uint32_t d = 0; d < config_.depth; ++d) {
    stages.push_back(family.make_stage(config_.buckets_per_stage));
  }
  hashes_ = hash::StageHashBank(std::move(stages));
  stages_.assign(static_cast<std::size_t>(config_.depth) *
                     config_.buckets_per_stage,
                 0);
  set_threshold(config_.threshold);
}

void MultistageFilter::set_threshold(common::ByteCount threshold) {
  config_.threshold = std::max<common::ByteCount>(threshold, 1);
  serial_stage_threshold_ = std::max<common::ByteCount>(
      config_.threshold / std::max<std::uint32_t>(config_.depth, 1), 1);
}

void MultistageFilter::admit(const packet::FlowKey& key,
                             std::uint32_t bytes) {
  flowmem::FlowEntry* entry = memory_.insert(key, interval_);
  if (entry == nullptr) {
    ++dropped_passes_;
    if (tm_.enabled()) tm_.on_insert_drop();
    return;
  }
  if (tm_.enabled()) tm_.on_insert();
  flowmem::FlowMemory::add_bytes(*entry, bytes);
}

void MultistageFilter::observe(const packet::FlowKey& key,
                               std::uint32_t bytes) {
  ++packets_;
  if (tm_.enabled()) tm_.on_packet(bytes);
  // The stage buckets are hashed lazily: a shielded hit never needs
  // them.
  std::uint64_t* buckets = bucket_scratch_.data();
  if (flowmem::FlowEntry* entry = memory_.find(key)) {
    flowmem::FlowMemory::add_bytes(*entry, bytes);
    if (tm_.enabled()) tm_.on_hit();
    if (config_.shielding) {
      return;  // entry-holding flows no longer touch the filter
    }
    // Without shielding the packet still feeds the stage counters (it
    // can never "pass" again — the flow is already tracked).
    hashes_.bucket_all(key.fingerprint(), buckets);
    for (std::uint32_t d = 0; d < config_.depth; ++d) {
      stage_at(d, buckets[d]) += bytes;
    }
    counter_accesses_ += config_.depth;
    return;
  }
  hashes_.bucket_all(key.fingerprint(), buckets);
  if (config_.serial) {
    observe_serial(key, bytes, buckets);
  } else {
    observe_parallel(key, bytes, buckets);
  }
}

void MultistageFilter::observe_parallel(const packet::FlowKey& key,
                                        std::uint32_t bytes,
                                        const std::uint64_t* buckets) {
  // After a normal increment every counter gains `bytes`, so the packet
  // passes iff the *smallest* counter would reach the threshold. A
  // stage "passes" when its counter alone would let the packet through;
  // the ratio between consecutive stages is the Lemma 1 attenuation the
  // filter delivers on this trace. Both read the pre-update counters.
  const bool counting = tm_.enabled();
  common::ByteCount min_counter = ~common::ByteCount{0};
  if (!config_.conservative_update) {
    // Plain filter: every counter is read for the min and then
    // incremented regardless of the outcome, so one pass does both.
    for (std::uint32_t d = 0; d < config_.depth; ++d) {
      common::ByteCount& counter = stage_at(d, buckets[d]);
      if (counting) {
        stage_pass_tally_[d] += counter + bytes >= config_.threshold;
      }
      min_counter = std::min(min_counter, counter);
      counter += bytes;
    }
    counter_accesses_ += 2ULL * config_.depth;
    if (min_counter + bytes >= config_.threshold) {
      admit(key, bytes);
    }
    return;
  }
  for (std::uint32_t d = 0; d < config_.depth; ++d) {
    const common::ByteCount counter = stage_at(d, buckets[d]);
    if (counting) {
      stage_pass_tally_[d] += counter + bytes >= config_.threshold;
    }
    min_counter = std::min(min_counter, counter);
  }
  counter_accesses_ += config_.depth;
  const common::ByteCount new_min = min_counter + bytes;
  if (new_min >= config_.threshold) {
    // Second conservative-update rule: the admitted packet leaves the
    // counters untouched.
    admit(key, bytes);
    return;
  }
  // First rule: raise each counter at most to the new minimum.
  for (std::uint32_t d = 0; d < config_.depth; ++d) {
    common::ByteCount& counter = stage_at(d, buckets[d]);
    counter = std::max(counter, new_min);
  }
  counter_accesses_ += config_.depth;
}

void MultistageFilter::observe_serial(const packet::FlowKey& key,
                                      std::uint32_t bytes,
                                      const std::uint64_t* buckets) {
  if (config_.conservative_update) {
    // Second rule needs the pass decision before any update: the packet
    // passes iff every stage counter would reach T/d.
    bool would_pass = true;
    for (std::uint32_t d = 0; d < config_.depth; ++d) {
      if (stage_at(d, buckets[d]) + bytes >= serial_stage_threshold_) {
        if (tm_.enabled()) ++stage_pass_tally_[d];
      } else {
        would_pass = false;
        // Later stages never see the packet, but earlier ones (and
        // this one) do.
        counter_accesses_ += d + 1;
        // Update the stages the packet traversed.
        for (std::uint32_t u = 0; u <= d; ++u) {
          stage_at(u, buckets[u]) += bytes;
        }
        counter_accesses_ += d + 1;
        break;
      }
    }
    if (would_pass) {
      counter_accesses_ += config_.depth;
      admit(key, bytes);
    }
    return;
  }
  // Plain serial filter: increment stage by stage; stop at the first
  // stage whose counter stays below T/d.
  for (std::uint32_t d = 0; d < config_.depth; ++d) {
    common::ByteCount& counter = stage_at(d, buckets[d]);
    counter += bytes;
    counter_accesses_ += 2;
    if (counter < serial_stage_threshold_) {
      return;
    }
    if (tm_.enabled()) ++stage_pass_tally_[d];
  }
  admit(key, bytes);
}

void MultistageFilter::save_state(common::StateWriter& out) const {
  out.put_u8(1);  // layout version
  out.put_u64(config_.threshold);
  out.put_u32(interval_);
  out.put_u64(packets_);
  out.put_u64(counter_accesses_);
  out.put_u64(dropped_passes_);
  out.put_u32(config_.depth);
  out.put_u32(config_.buckets_per_stage);
  // Row-major flat walk: byte-identical to the old per-stage nesting.
  for (const common::ByteCount counter : stages_) {
    out.put_u64(counter);
  }
  memory_.save_state(out);
}

void MultistageFilter::restore_state(common::StateReader& in) {
  if (in.u8() != 1) {
    throw common::StateError("multistage filter: unknown checkpoint layout");
  }
  set_threshold(in.u64());  // also rederives the serial stage threshold
  interval_ = in.u32();
  packets_ = in.u64();
  counter_accesses_ = in.u64();
  dropped_passes_ = in.u64();
  if (in.u32() != config_.depth ||
      in.u32() != config_.buckets_per_stage) {
    throw common::StateError(
        "multistage filter: checkpoint stage geometry does not match "
        "configuration");
  }
  for (common::ByteCount& counter : stages_) {
    counter = in.u64();
  }
  memory_.restore_state(in);
}

Report MultistageFilter::end_interval() {
  Report report;
  report.interval = interval_;
  report.threshold = config_.threshold;
  report.entries_used = memory_.entries_used();
  report.flows.reserve(report.entries_used);
  memory_.for_each([&](const flowmem::FlowEntry& entry) {
    report.flows.push_back(ReportedFlow{entry.key, entry.bytes_current,
                                        entry.exact_this_interval});
  });

  flowmem::EndIntervalPolicy policy;
  policy.policy = config_.preserve;
  policy.threshold = config_.threshold;
  policy.early_removal_threshold = static_cast<common::ByteCount>(
      config_.early_removal_fraction *
      static_cast<double>(config_.threshold));
  memory_.end_interval(policy);
  if (tm_.enabled()) {
    if (config_.shielding) tm_shielded_->add(tm_.interval_hits());
    for (std::uint32_t d = 0; d < config_.depth; ++d) {
      tm_stage_pass_[d]->add(stage_pass_tally_[d]);
      stage_pass_tally_[d] = 0;
    }
  }
  tm_.on_end_interval(report.entries_used, memory_.capacity(),
                      report.entries_used - memory_.entries_used(),
                      config_.threshold);

  // "...only reinitializing stage counters" (Section 3.3.1).
  std::fill(stages_.begin(), stages_.end(), 0);
  ++interval_;
  return report;
}

}  // namespace nd::core
