#include "flowmem/flow_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace nd::flowmem {

namespace {

/// Slot array size: next power of two of 2x capacity, so probe chains
/// stay short even when the flow memory is completely full.
std::size_t slot_count_for(std::size_t capacity) {
  const std::size_t wanted = std::max<std::size_t>(8, capacity * 2);
  return std::bit_ceil(wanted);
}


}  // namespace

FlowMemory::FlowMemory(std::size_t capacity, std::uint64_t seed)
    : slots_(slot_count_for(capacity)),
      tags_(slot_count_for(capacity) + kTagGroupWidth),
      slot_mask_(slot_count_for(capacity) - 1),
      capacity_(capacity),
      family_(seed) {}

std::size_t FlowMemory::slot_of(const packet::FlowKey& key) const {
  return static_cast<std::size_t>(family_.scramble(key.fingerprint())) &
         slot_mask_;
}

std::size_t FlowMemory::probe_empty(std::size_t slot) const {
  const std::size_t mask = slot_mask_;
  const std::uint8_t* tags = tags_.data();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  for (;;) {
    const std::uint64_t empty = zero_lanes(load_group(tags, slot));
    if (empty != 0) return (slot + first_lane(empty)) & mask;
    slot = (slot + kTagGroupWidth) & mask;
  }
#else
  while (tags[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  return slot;
#endif
}

FlowEntry* FlowMemory::insert(const packet::FlowKey& key,
                              common::IntervalIndex interval) {
  if (used_ >= capacity_) return nullptr;
  ++accesses_;
  const std::uint64_t hash = family_.scramble(key.fingerprint());
  // used_ < capacity_ <= slots/2 guarantees an empty slot exists, and
  // the first empty from the home index is exactly where classic linear
  // probing would land — placement (and therefore checkpoints) is
  // bit-identical to the pre-tag layout.
  const std::size_t slot =
      probe_empty(static_cast<std::size_t>(hash) & slot_mask_);
  FlowEntry& entry = slots_[slot];
  entry.key = key;
  entry.bytes_current = 0;
  entry.bytes_lifetime = 0;
  entry.created_interval = interval;
  entry.created_this_interval = true;
  entry.exact_this_interval = false;
  entry.occupied = true;
  set_tag(slot, tag_of(hash));
  ++used_;
  high_water_ = std::max(high_water_, used_);
  return &entry;
}

void FlowMemory::clear_tags() {
  std::fill(tags_.begin(), tags_.end(), std::uint8_t{0});
}

void FlowMemory::end_interval(const EndIntervalPolicy& policy) {
  // Collect survivors, then rebuild the table. A rebuild once per
  // interval keeps the open-addressing invariant (no holes inside probe
  // chains) without tombstones on the per-packet fast path. Empty slots
  // already hold FlowEntry{}, so resetting the occupied ones leaves the
  // same table a full wipe would.
  survivors_.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (tags_[slot] == 0) continue;
    FlowEntry& entry = slots_[slot];
    bool keep = false;
    switch (policy.policy) {
      case PreservePolicy::kClear:
        keep = false;
        break;
      case PreservePolicy::kPreserve:
        keep = entry.bytes_current >= policy.threshold ||
               entry.created_this_interval;
        break;
      case PreservePolicy::kEarlyRemoval:
        keep = entry.bytes_current >= policy.threshold ||
               (entry.created_this_interval &&
                entry.bytes_current >= policy.early_removal_threshold);
        break;
    }
    if (keep) survivors_.push_back(entry);
    entry = FlowEntry{};
  }

  clear_tags();
  used_ = 0;
  for (FlowEntry& survivor : survivors_) {
    survivor.bytes_current = 0;
    survivor.created_this_interval = false;
    survivor.exact_this_interval = true;
    const std::uint64_t hash =
        family_.scramble(survivor.key.fingerprint());
    const std::size_t slot =
        probe_empty(static_cast<std::size_t>(hash) & slot_mask_);
    slots_[slot] = survivor;
    set_tag(slot, tag_of(hash));
    ++used_;
  }
  // The high-water mark intentionally persists across intervals.
}

void FlowMemory::save_state(common::StateWriter& out) const {
  out.put_u64(static_cast<std::uint64_t>(slots_.size()));
  out.put_u64(static_cast<std::uint64_t>(capacity_));
  out.put_u64(static_cast<std::uint64_t>(used_));
  out.put_u64(static_cast<std::uint64_t>(high_water_));
  out.put_u64(accesses_);
  out.put_u64(static_cast<std::uint64_t>(used_));
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (tags_[slot] == 0) continue;
    const FlowEntry& entry = slots_[slot];
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

void FlowMemory::restore_state(common::StateReader& in) {
  if (in.u64() != slots_.size() || in.u64() != capacity_) {
    throw common::StateError(
        "flow memory: checkpoint geometry does not match configuration");
  }
  const std::uint64_t used = in.u64();
  const std::uint64_t high_water = in.u64();
  const std::uint64_t accesses = in.u64();
  const std::uint64_t occupied = in.u64();
  if (used > capacity_ || occupied != used) {
    throw common::StateError("flow memory: inconsistent checkpoint counts");
  }
  std::fill(slots_.begin(), slots_.end(), FlowEntry{});
  clear_tags();
  for (std::uint64_t i = 0; i < occupied; ++i) {
    const std::uint64_t slot = in.u64();
    if (slot >= slots_.size()) {
      throw common::StateError("flow memory: checkpoint slot out of range");
    }
    FlowEntry& entry = slots_[slot];
    if (entry.occupied) {
      throw common::StateError("flow memory: duplicate checkpoint slot");
    }
    entry.key = packet::load_flow_key(in);
    entry.bytes_current = in.u64();
    entry.bytes_lifetime = in.u64();
    entry.created_interval = in.u32();
    const std::uint8_t flags = in.u8();
    entry.created_this_interval = (flags & 1U) != 0;
    entry.exact_this_interval = (flags & 2U) != 0;
    entry.occupied = true;
    // The tag array is derived state: recompute it from the restored
    // key so the checkpoint format stays byte-identical to the pre-tag
    // layout.
    set_tag(static_cast<std::size_t>(slot),
            tag_of(family_.scramble(entry.key.fingerprint())));
  }
  used_ = static_cast<std::size_t>(used);
  high_water_ = static_cast<std::size_t>(high_water);
  accesses_ = accesses;
}

}  // namespace nd::flowmem
