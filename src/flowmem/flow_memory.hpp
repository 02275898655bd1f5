// Bounded flow memory — the model of the scarce SRAM flow table.
//
// Both sample-and-hold and the multistage filter funnel identified flows
// into a small table of per-flow counters (Section 3). This class models
// that table: fixed capacity decided at construction (insertions fail
// when full, exactly like running out of SRAM), O(1) expected find/insert
// via open addressing, and the paper's end-of-interval entry-preservation
// policies (Section 3.3.1):
//
//   kClear        — wipe everything (the basic algorithms);
//   kPreserve     — keep entries that counted >= T this interval AND all
//                   entries added this interval (they may be large flows
//                   that entered late);
//   kEarlyRemoval — like kPreserve, but entries added this interval
//                   survive only if they counted >= R (R < T).
//
// Memory layout (tag-partitioned, SwissTable/F14 style): occupancy moved
// out of the fat 64-byte payload slots into a dense parallel array of
// 1-byte tags (0 = empty, else 0x80 | 7 hash bits), scanned a word at a
// time (tag_probe.hpp). A probe chain of length p costs one or two
// L1-resident tag-word loads plus payload lines ONLY for tag-matching
// slots — in particular a negative lookup, the overwhelmingly common
// case for shielded/filtered packets, usually touches no payload line at
// all, where the previous layout paid a 64-byte miss per probed slot.
// Slot placement and probe order are bit-identical to the classic
// linear-probing layout (first empty slot from the home index), so
// checkpoints, reports and memory-access counts are unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "common/state_buffer.hpp"
#include "common/types.hpp"
#include "flowmem/tag_probe.hpp"
#include "hash/hash.hpp"
#include "packet/flow_key.hpp"

namespace nd::flowmem {

/// One payload slot, aligned so a probe that does touch a payload
/// touches exactly one cache line. `occupied` is kept redundantly with
/// the tag array for external tests; FlowMemory itself reads occupancy
/// only from the tags. An empty slot always holds FlowEntry{}.
struct alignas(64) FlowEntry {
  packet::FlowKey key;
  /// Bytes counted during the current measurement interval.
  common::ByteCount bytes_current{0};
  /// Bytes counted over the entry's whole lifetime.
  common::ByteCount bytes_lifetime{0};
  common::IntervalIndex created_interval{0};
  bool created_this_interval{true};
  /// True iff the entry existed when the current interval began, i.e.
  /// bytes_current is an *exact* measurement of this interval's traffic.
  bool exact_this_interval{false};
  bool occupied{false};
};

enum class PreservePolicy { kClear, kPreserve, kEarlyRemoval };

struct EndIntervalPolicy {
  PreservePolicy policy{PreservePolicy::kClear};
  /// Large-flow threshold T: entries at/above it always survive under
  /// kPreserve/kEarlyRemoval.
  common::ByteCount threshold{0};
  /// Early-removal threshold R (< T); only used by kEarlyRemoval.
  common::ByteCount early_removal_threshold{0};
};

class FlowMemory {
 public:
  /// `capacity` is the number of entries of SRAM available; `seed`
  /// seeds the placement hash.
  FlowMemory(std::size_t capacity, std::uint64_t seed);

  /// Placement hash for a flow fingerprint: its low bits pick the home
  /// slot. Exposed so tests can choose keys by where they land.
  [[nodiscard]] std::uint64_t hash_of(std::uint64_t fingerprint) const {
    return family_.scramble(fingerprint);
  }

  /// Find the entry for `key`, or nullptr. Counts one memory access.
  [[nodiscard]] FlowEntry* find(const packet::FlowKey& key) {
    const std::uint64_t hash = family_.scramble(key.fingerprint());
    ++accesses_;
    const std::size_t mask = slot_mask_;
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    const std::uint8_t tag = tag_of(hash);
    const std::uint8_t* tags = tags_.data();
    // Home-slot fast path: at load factor <= 1/2 most live keys sit in
    // their home slot and most absent keys see an empty home byte, so
    // one tag-byte compare resolves the common cases without the group
    // scan. Results are identical to the scan below — the home lane is
    // the scan's first candidate, and an empty home byte is its stop
    // condition — so this is purely a shortcut, not a semantic change.
    const std::uint8_t home_tag = tags[slot];
    if (home_tag == tag) {
      FlowEntry& entry = slots_[slot];
      if (entry.key == key) return &entry;
    } else if (home_tag == 0) {
      return nullptr;
    }
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // Word-at-a-time scan: byte lane p of a little-endian load is slot
    // slot+p, so lane masks order candidates exactly like the scalar
    // probe would visit them. The chain is a contiguous occupied run
    // from the home slot (the rebuild in end_interval leaves no
    // tombstones), so the scan stops at the first empty lane; tag
    // matches past it are stale coincidences and are discarded
    // unchecked.
    for (std::size_t scanned = 0; scanned <= mask;
         scanned += kTagGroupWidth) {
      const std::uint64_t group = load_group(tags, slot);
      const std::uint64_t empty = zero_lanes(group);
      std::uint64_t candidates =
          lanes_below_first(match_lanes(group, tag), empty);
      while (candidates != 0) {
        FlowEntry& entry = slots_[(slot + first_lane(candidates)) & mask];
        if (entry.key == key) return &entry;
        candidates &= candidates - 1;  // 7-bit tag collision: next lane
      }
      if (empty != 0) return nullptr;
      slot = (slot + kTagGroupWidth) & mask;
    }
#else
    // Portable scalar fallback: same probe order, one tag byte at a
    // time.
    for (std::size_t scanned = 0; scanned <= mask; ++scanned) {
      const std::uint8_t t = tags[slot];
      if (t == 0) return nullptr;
      if (t == tag) {
        FlowEntry& entry = slots_[slot];
        if (entry.key == key) return &entry;
      }
      slot = (slot + 1) & mask;
    }
#endif
    return nullptr;
  }

  /// Insert a new entry (bytes zeroed). Returns nullptr when the table
  /// is full — the caller loses the flow, exactly like real SRAM
  /// exhaustion. Precondition: key not present.
  FlowEntry* insert(const packet::FlowKey& key,
                    common::IntervalIndex interval);

  /// Add bytes to an entry returned by find/insert.
  static void add_bytes(FlowEntry& entry, common::ByteCount bytes) {
    entry.bytes_current += bytes;
    entry.bytes_lifetime += bytes;
  }

  /// Apply an end-of-interval policy: surviving entries have
  /// bytes_current zeroed and become exact for the next interval.
  /// Visits only occupied slots (found from the tags): survivors are
  /// copied out in slot order into a reused buffer, only the slots that
  /// were occupied are reset, and the survivors are reinserted in the
  /// same order. The result — placement included — is exactly that of
  /// wiping the table and reinserting, so checkpoints are unchanged.
  void end_interval(const EndIntervalPolicy& policy);

  /// Visit every occupied entry in slot order. Walks the tag array and
  /// reads only the payload lines of occupied slots.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (tags_[slot] != 0) visit(slots_[slot]);
    }
  }

  [[nodiscard]] std::size_t entries_used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Largest entries_used() ever observed (the SRAM high-water mark the
  /// paper's Table 4 reports).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Total find/insert probes performed; the per-packet memory-access
  /// accounting of Table 1 divides this by packets processed.
  [[nodiscard]] std::uint64_t memory_accesses() const { return accesses_; }

  /// Checkpoint the table including exact slot placement. Open
  /// addressing makes placement a function of insertion history, so
  /// occupied entries are written with their slot index and restored in
  /// place — re-inserting them in any canonical order would change the
  /// probe-chain layout and break bit-identical resume. The tag array is
  /// derived state (recomputed from the restored keys), so the buffer
  /// format is unchanged from the pre-tag layout. restore_state
  /// requires a FlowMemory constructed with the same capacity and seed;
  /// mismatches throw common::StateError.
  void save_state(common::StateWriter& out) const;
  void restore_state(common::StateReader& in);

 private:
  [[nodiscard]] std::size_t slot_of(const packet::FlowKey& key) const;
  /// Write a tag, mirroring the head of the array past the end so a
  /// group load starting at any slot index reads the wrapped chain
  /// contiguously. The pad is kTagGroupWidth bytes; for tables smaller
  /// than the pad the head mirrors around more than once, hence the
  /// loop (one iteration for any real-sized table).
  void set_tag(std::size_t slot, std::uint8_t tag) {
    const std::size_t slots = slots_.size();
    for (std::size_t at = slot; at < tags_.size(); at += slots) {
      tags_[at] = tag;
    }
  }
  /// First empty slot at/after `slot` in probe order — exactly the slot
  /// classic linear probing would pick for an insertion.
  [[nodiscard]] std::size_t probe_empty(std::size_t slot) const;
  /// Zero every tag (including the mirror).
  void clear_tags();

  /// Payload slots; FlowEntry's alignas(64) keeps each on its own line.
  std::vector<FlowEntry> slots_;
  /// Parallel occupancy/fingerprint tags, slots_.size() + kTagGroupWidth
  /// bytes (mirrored head; see set_tag).
  std::vector<std::uint8_t> tags_;
  /// end_interval's survivor buffer, kept to reuse its allocation.
  std::vector<FlowEntry> survivors_;
  std::size_t slot_mask_;
  std::size_t capacity_;
  std::size_t used_{0};
  std::size_t high_water_{0};
  std::uint64_t accesses_{0};
  hash::HashFamily family_;
};

}  // namespace nd::flowmem
