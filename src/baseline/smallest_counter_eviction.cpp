#include "baseline/smallest_counter_eviction.hpp"

namespace nd::baseline {

void SmallestCounterEviction::observe(const packet::FlowKey& key,
                                      std::uint32_t bytes) {
  ++packets_;
  ++accesses_;
  if (auto it = table_.find(key); it != table_.end()) {
    Slot& slot = it->second;
    by_count_.erase(slot.index_it);
    slot.bytes += bytes;
    slot.index_it = by_count_.emplace(slot.bytes, key);
    return;
  }
  if (table_.size() >= config_.flow_memory_entries &&
      !config_.flow_memory_entries) {
    return;
  }
  if (table_.size() >= config_.flow_memory_entries) {
    // Evict the flow with the smallest measured traffic. The newcomer
    // starts from scratch — which is exactly how a large flow can be
    // starved forever by a stream of mice.
    const auto victim = by_count_.begin();
    table_.erase(victim->second);
    by_count_.erase(victim);
    ++evictions_;
  }
  Slot slot;
  slot.bytes = bytes;
  slot.index_it = by_count_.emplace(slot.bytes, key);
  table_.emplace(key, slot);
}

core::Report SmallestCounterEviction::end_interval() {
  core::Report report;
  report.interval = interval_;
  report.entries_used = table_.size();
  report.flows.reserve(table_.size());
  for (const auto& [key, slot] : table_) {
    report.flows.push_back(
        core::ReportedFlow{key, slot.bytes, /*exact=*/false});
  }
  table_.clear();
  by_count_.clear();
  ++interval_;
  return report;
}

}  // namespace nd::baseline
