// A self-contained copy of the pre-tag-layout FlowMemory (classic open
// addressing over fat slots, occupancy read from the payload) kept as a
// behavioural oracle for the tag-partitioned layout. The production
// class promises bit-identical placement, probe results, access counts
// and checkpoint bytes; the equivalence tests in
// tests/flowmem/tag_layout_test.cpp drive both side by side through
// randomized operation sequences and compare everything observable.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/state_buffer.hpp"
#include "common/types.hpp"
#include "flowmem/flow_memory.hpp"
#include "hash/hash.hpp"
#include "packet/flow_key.hpp"

namespace nd::testing {

/// The historical layout: one array of 64-byte-ish entries, occupancy
/// inline, linear probing that loads a payload line per probed slot.
class ReferenceFlowMemory {
 public:
  ReferenceFlowMemory(std::size_t capacity, std::uint64_t seed)
      : slots_(slot_count_for(capacity)),
        capacity_(capacity),
        family_(seed) {}

  flowmem::FlowEntry* find(const packet::FlowKey& key) {
    ++accesses_;
    std::size_t slot = slot_of(key);
    for (std::size_t probes = 0; probes < slots_.size(); ++probes) {
      flowmem::FlowEntry& entry = slots_[slot];
      if (!entry.occupied) return nullptr;
      if (entry.key == key) return &entry;
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return nullptr;
  }

  flowmem::FlowEntry* insert(const packet::FlowKey& key,
                             common::IntervalIndex interval) {
    if (used_ >= capacity_) return nullptr;
    ++accesses_;
    std::size_t slot = slot_of(key);
    while (slots_[slot].occupied) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    flowmem::FlowEntry& entry = slots_[slot];
    entry.key = key;
    entry.bytes_current = 0;
    entry.bytes_lifetime = 0;
    entry.created_interval = interval;
    entry.created_this_interval = true;
    entry.exact_this_interval = false;
    entry.occupied = true;
    ++used_;
    high_water_ = std::max(high_water_, used_);
    return &entry;
  }

  void end_interval(const flowmem::EndIntervalPolicy& policy) {
    std::vector<flowmem::FlowEntry> survivors;
    for (const flowmem::FlowEntry& entry : slots_) {
      if (!entry.occupied) continue;
      bool keep = false;
      switch (policy.policy) {
        case flowmem::PreservePolicy::kClear:
          keep = false;
          break;
        case flowmem::PreservePolicy::kPreserve:
          keep = entry.bytes_current >= policy.threshold ||
                 entry.created_this_interval;
          break;
        case flowmem::PreservePolicy::kEarlyRemoval:
          keep = entry.bytes_current >= policy.threshold ||
                 (entry.created_this_interval &&
                  entry.bytes_current >= policy.early_removal_threshold);
          break;
      }
      if (keep) survivors.push_back(entry);
    }
    std::fill(slots_.begin(), slots_.end(), flowmem::FlowEntry{});
    used_ = 0;
    for (flowmem::FlowEntry survivor : survivors) {
      survivor.bytes_current = 0;
      survivor.created_this_interval = false;
      survivor.exact_this_interval = true;
      std::size_t slot = slot_of(survivor.key);
      while (slots_[slot].occupied) {
        slot = (slot + 1) & (slots_.size() - 1);
      }
      slots_[slot] = survivor;
      ++used_;
    }
  }

  void save_state(common::StateWriter& out) const {
    out.put_u64(static_cast<std::uint64_t>(slots_.size()));
    out.put_u64(static_cast<std::uint64_t>(capacity_));
    out.put_u64(static_cast<std::uint64_t>(used_));
    out.put_u64(static_cast<std::uint64_t>(high_water_));
    out.put_u64(accesses_);
    std::uint64_t occupied = 0;
    for (const flowmem::FlowEntry& entry : slots_) {
      if (entry.occupied) ++occupied;
    }
    out.put_u64(occupied);
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      const flowmem::FlowEntry& entry = slots_[slot];
      if (!entry.occupied) continue;
      out.put_u64(static_cast<std::uint64_t>(slot));
      packet::save_flow_key(out, entry.key);
      out.put_u64(entry.bytes_current);
      out.put_u64(entry.bytes_lifetime);
      out.put_u32(entry.created_interval);
      out.put_u8(static_cast<std::uint8_t>(
          (entry.created_this_interval ? 1U : 0U) |
          (entry.exact_this_interval ? 2U : 0U)));
    }
  }

  /// Visit every occupied entry in slot order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const flowmem::FlowEntry& entry : slots_) {
      if (entry.occupied) visit(entry);
    }
  }

  [[nodiscard]] std::size_t entries_used() const { return used_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::uint64_t memory_accesses() const { return accesses_; }
  [[nodiscard]] const flowmem::FlowEntry& slot(std::size_t index) const {
    return slots_[index];
  }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  static std::size_t slot_count_for(std::size_t capacity) {
    return std::bit_ceil(std::max<std::size_t>(8, capacity * 2));
  }
  [[nodiscard]] std::size_t slot_of(const packet::FlowKey& key) const {
    return static_cast<std::size_t>(family_.scramble(key.fingerprint())) &
           (slots_.size() - 1);
  }

  std::vector<flowmem::FlowEntry> slots_;
  std::size_t capacity_;
  std::size_t used_{0};
  std::size_t high_water_{0};
  std::uint64_t accesses_{0};
  hash::HashFamily family_;
};

}  // namespace nd::testing
