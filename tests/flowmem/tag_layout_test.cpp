// Tests for the tag-partitioned flow-memory layout: the SWAR tag-probe
// primitives (including the documented borrow caveat), the edge cases of
// the word-at-a-time probe (wraparound, table-full, 7-bit tag collisions)
// and — the load-bearing contract — bit-identical behaviour against a
// self-contained copy of the pre-tag layout, down to checkpoint bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "../support/reference_flow_memory.hpp"
#include "flowmem/flow_memory.hpp"
#include "flowmem/tag_probe.hpp"
#include "hash/hash.hpp"

namespace nd::flowmem {
namespace {

using nd::testing::ReferenceFlowMemory;

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

std::uint64_t word_of_lanes(const std::uint8_t (&lanes)[kTagGroupWidth]) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < kTagGroupWidth; ++i) {
    word |= static_cast<std::uint64_t>(lanes[i]) << (8 * i);
  }
  return word;
}

// --- SWAR primitives ---------------------------------------------------

TEST(TagProbe, TagIsNeverEmpty) {
  // Tag 0 means "empty slot"; tag_of must never produce it, whatever the
  // hash — the high bit guarantees that.
  for (std::uint64_t h :
       {0ULL, 1ULL, ~0ULL, 0x8000000000000000ULL, 0x00FFFFFFFFFFFFFFULL}) {
    EXPECT_GE(tag_of(h), 0x80U) << "hash " << h;
  }
}

TEST(TagProbe, TagUsesTopBitsSlotUsesBottomBits) {
  // Same bottom bits (same home slot), different top bits -> different
  // tags: tag collisions stay independent of slot collisions.
  const std::uint64_t low = 0x123456;
  EXPECT_NE(tag_of(low | (0x01ULL << 57)), tag_of(low | (0x02ULL << 57)));
  EXPECT_EQ(tag_of(0x01ULL << 57), tag_of((0x01ULL << 57) | 0xFFFF));
}

TEST(TagProbe, ZeroLanesFindsEachSingleZeroExactly) {
  for (std::size_t z = 0; z < kTagGroupWidth; ++z) {
    std::uint8_t lanes[kTagGroupWidth];
    for (std::size_t i = 0; i < kTagGroupWidth; ++i) {
      lanes[i] = static_cast<std::uint8_t>(0x80U + i + 1);
    }
    lanes[z] = 0;
    const std::uint64_t marked = zero_lanes(word_of_lanes(lanes));
    ASSERT_NE(marked, 0U);
    // The lowest marked lane is exact even when borrow propagation marks
    // lanes above it.
    EXPECT_EQ(first_lane(marked), z);
  }
}

TEST(TagProbe, ZeroLanesBorrowCaveatOnlyAffectsLanesAboveATrueZero) {
  // lane1 = 0x01 sits directly above a true zero in lane0: the SWAR
  // subtraction borrows through it and falsely marks it. This is the
  // documented caveat — and exactly why the probe only trusts the FIRST
  // marked lane (and discards matches above it).
  std::uint8_t lanes[kTagGroupWidth] = {0x00, 0x01, 0x82, 0x83,
                                        0x84, 0x85, 0x86, 0x87};
  const std::uint64_t marked = zero_lanes(word_of_lanes(lanes));
  EXPECT_EQ(first_lane(marked), 0U);           // the true zero
  EXPECT_NE(marked & (0x80ULL << 8), 0U);      // lane 1 falsely marked
  // Below any zero lane the test is exact: no lane below a zero is ever
  // marked.
  std::uint8_t high_zero[kTagGroupWidth] = {0x81, 0x82, 0x83, 0x84,
                                            0x85, 0x86, 0x87, 0x00};
  EXPECT_EQ(first_lane(zero_lanes(word_of_lanes(high_zero))), 7U);
}

TEST(TagProbe, MatchLanesFindsAllCopiesOfTheByte) {
  std::uint8_t lanes[kTagGroupWidth] = {0x91, 0x85, 0x91, 0x86,
                                        0x87, 0x91, 0x88, 0x89};
  std::uint64_t matches = match_lanes(word_of_lanes(lanes), 0x91);
  EXPECT_EQ(first_lane(matches), 0U);
  matches &= matches - 1;
  EXPECT_EQ(first_lane(matches), 2U);
  matches &= matches - 1;
  EXPECT_EQ(first_lane(matches), 5U);
  matches &= matches - 1;
  EXPECT_EQ(matches, 0U);
}

TEST(TagProbe, LanesBelowFirstDiscardsMatchesPastTheFirstEmpty) {
  std::uint8_t lanes[kTagGroupWidth] = {0x91, 0x85, 0x00, 0x91,
                                        0x91, 0x86, 0x87, 0x88};
  const std::uint64_t word = word_of_lanes(lanes);
  const std::uint64_t kept =
      lanes_below_first(match_lanes(word, 0x91), zero_lanes(word));
  // Only the lane-0 match survives; lanes 3 and 4 are past the empty.
  EXPECT_EQ(first_lane(kept), 0U);
  EXPECT_EQ(kept & (kept - 1), 0U);
  // bound == 0 keeps everything.
  EXPECT_EQ(lanes_below_first(0x8080ULL, 0), 0x8080ULL);
}

// --- Probe edge cases --------------------------------------------------

TEST(TagLayout, FullTableProbeTerminates) {
  // Fill to capacity (half the slots) and look up a missing key: the
  // probe must terminate at an empty slot, and the table must refuse the
  // next insert without losing existing entries.
  FlowMemory memory(64, 7);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_NE(memory.insert(key(i), 0), nullptr) << i;
  }
  EXPECT_EQ(memory.insert(key(1000), 0), nullptr);
  EXPECT_EQ(memory.find(key(1000)), nullptr);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_NE(memory.find(key(i)), nullptr) << i;
  }
  EXPECT_EQ(memory.entries_used(), 64U);
}

TEST(TagLayout, ProbeChainsWrapAroundTheCapacityBoundary) {
  // Craft keys whose home slot lands in the LAST tag group, so the
  // probe's 8-byte loads and chain walks cross the slots-1 -> 0 seam
  // (covered by the mirrored tag pad).
  const std::uint64_t seed = 11;
  const std::size_t slots = 16;  // capacity 8 -> 16 slots
  const hash::HashFamily replica(seed);
  FlowMemory memory(8, seed);
  ReferenceFlowMemory reference(8, seed);
  std::vector<packet::FlowKey> tail_keys;
  for (std::uint32_t i = 0; tail_keys.size() < 6 && i < 100'000; ++i) {
    const packet::FlowKey k = key(i);
    const std::size_t home =
        static_cast<std::size_t>(replica.scramble(k.fingerprint())) &
        (slots - 1);
    if (home >= slots - 2) tail_keys.push_back(k);
  }
  ASSERT_EQ(tail_keys.size(), 6U);
  for (const packet::FlowKey& k : tail_keys) {
    ASSERT_NE(memory.insert(k, 0), nullptr);
    ASSERT_NE(reference.insert(k, 0), nullptr);
  }
  for (const packet::FlowKey& k : tail_keys) {
    FlowEntry* found = memory.find(k);
    flowmem::FlowEntry* expected = reference.find(k);
    ASSERT_NE(found, nullptr);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(found->key, k);
    EXPECT_EQ(expected->key, k);
  }
  // Missing keys homed at the seam still terminate (and agree with the
  // reference on access counts).
  for (std::uint32_t i = 100'000; i < 100'050; ++i) {
    EXPECT_EQ(memory.find(key(i)) == nullptr,
              reference.find(key(i)) == nullptr);
  }
  EXPECT_EQ(memory.memory_accesses(), reference.memory_accesses());
}

TEST(TagLayout, TinyTablesWrapTheMirrorPadMoreThanOnce) {
  // Capacities 4 and 8 give the minimum 8- and 16-slot tables: every
  // group load from a seam slot reads mirrored tags, and at 8 slots one
  // 8-wide group covers the whole table. Probes (hits, misses, wrapped
  // chains) must still agree with the reference.
  for (const std::size_t capacity : {4UL, 8UL}) {
    FlowMemory memory(capacity, 11);
    ReferenceFlowMemory reference(capacity, 11);
    for (std::uint32_t i = 0; i < capacity; ++i) {
      ASSERT_NE(memory.insert(key(i), 0), nullptr);
      ASSERT_NE(reference.insert(key(i), 0), nullptr);
    }
    for (std::uint32_t i = 0; i < 200; ++i) {
      EXPECT_EQ(memory.find(key(i)) == nullptr,
                reference.find(key(i)) == nullptr)
          << i;
    }
    EXPECT_EQ(memory.memory_accesses(), reference.memory_accesses());
  }
}

TEST(TagLayout, TagCollisionWithKeyMismatchIsRejectedByKeyCompare) {
  // Two distinct keys with the SAME home slot and the SAME 7-bit tag:
  // the tag scan alone cannot tell them apart, so find() must fall back
  // to the full key comparison.
  const std::uint64_t seed = 5;
  const std::size_t slots = 16;
  const hash::HashFamily replica(seed);
  packet::FlowKey first = key(0);
  packet::FlowKey second = key(0);
  bool found_pair = false;
  for (std::uint32_t a = 0; a < 4'000 && !found_pair; ++a) {
    const std::uint64_t ha = replica.scramble(key(a).fingerprint());
    for (std::uint32_t b = a + 1; b < 4'000; ++b) {
      const std::uint64_t hb = replica.scramble(key(b).fingerprint());
      if ((ha & (slots - 1)) == (hb & (slots - 1)) &&
          tag_of(ha) == tag_of(hb)) {
        first = key(a);
        second = key(b);
        found_pair = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found_pair) << "no colliding pair in the search range";
  FlowMemory memory(8, seed);
  ASSERT_NE(memory.insert(first, 0), nullptr);
  EXPECT_EQ(memory.find(second), nullptr);  // same tag, different key
  ASSERT_NE(memory.insert(second, 0), nullptr);
  FlowEntry* a_entry = memory.find(first);
  FlowEntry* b_entry = memory.find(second);
  ASSERT_NE(a_entry, nullptr);
  ASSERT_NE(b_entry, nullptr);
  EXPECT_NE(a_entry, b_entry);
  EXPECT_EQ(a_entry->key, first);
  EXPECT_EQ(b_entry->key, second);
}

// --- Equivalence with the pre-tag layout -------------------------------

void expect_same_state(FlowMemory& actual, ReferenceFlowMemory& expected) {
  EXPECT_EQ(actual.entries_used(), expected.entries_used());
  EXPECT_EQ(actual.high_water(), expected.high_water());
  EXPECT_EQ(actual.memory_accesses(), expected.memory_accesses());
  common::StateWriter actual_state;
  common::StateWriter expected_state;
  actual.save_state(actual_state);
  expected.save_state(expected_state);
  // Byte-identical checkpoints: same slots, same payloads, same counts —
  // the strongest form of "the layout change is unobservable".
  EXPECT_EQ(actual_state.bytes(), expected_state.bytes());
}

TEST(TagLayout, RandomizedOperationsMatchReferenceBitForBit) {
  for (const PreservePolicy policy :
       {PreservePolicy::kClear, PreservePolicy::kPreserve,
        PreservePolicy::kEarlyRemoval}) {
    FlowMemory memory(128, 29);
    ReferenceFlowMemory reference(128, 29);
    std::mt19937_64 rng(1234);
    std::uniform_int_distribution<std::uint32_t> key_id(0, 400);
    std::uniform_int_distribution<std::uint32_t> bytes(1, 2000);
    common::IntervalIndex interval = 0;
    for (int step = 0; step < 20'000; ++step) {
      const packet::FlowKey k = key(key_id(rng));
      const std::uint32_t b = bytes(rng);
      FlowEntry* entry = memory.find(k);
      FlowEntry* ref_entry = reference.find(k);
      ASSERT_EQ(entry == nullptr, ref_entry == nullptr) << "step " << step;
      if (entry == nullptr) {
        entry = memory.insert(k, interval);
        ref_entry = reference.insert(k, interval);
        ASSERT_EQ(entry == nullptr, ref_entry == nullptr)
            << "step " << step;
      }
      if (entry != nullptr) {
        FlowMemory::add_bytes(*entry, b);
        FlowMemory::add_bytes(*ref_entry, b);
      }
      if (step % 2'500 == 2'499) {
        expect_same_state(memory, reference);
        const EndIntervalPolicy end{policy, 30'000, 4'500};
        memory.end_interval(end);
        reference.end_interval(end);
        ++interval;
        expect_same_state(memory, reference);
      }
    }
    expect_same_state(memory, reference);
  }
}

TEST(SimdFlowMemory, EveryKernelMatchesTheReferenceOracleBitForBit) {
  // The probe kernel this host compiles (SWAR groups, or the byte loop
  // on big-endian hosts) against the one-slot-at-a-time oracle, with
  // early-removal compactions between intervals: byte-identical
  // checkpoints at the end.
  FlowMemory memory(128, 29);
  ReferenceFlowMemory reference(128, 29);
  std::mt19937_64 rng(4321);
  std::uniform_int_distribution<std::uint32_t> key_id(0, 400);
  std::uniform_int_distribution<std::uint32_t> bytes(1, 2000);
  common::IntervalIndex interval = 0;
  for (int step = 0; step < 12'000; ++step) {
    const packet::FlowKey k = key(key_id(rng));
    FlowEntry* entry = memory.find(k);
    FlowEntry* ref_entry = reference.find(k);
    ASSERT_EQ(entry == nullptr, ref_entry == nullptr) << "step " << step;
    if (entry == nullptr) {
      entry = memory.insert(k, interval);
      ref_entry = reference.insert(k, interval);
      ASSERT_EQ(entry == nullptr, ref_entry == nullptr) << "step " << step;
    }
    if (entry != nullptr) {
      const std::uint32_t b = bytes(rng);
      FlowMemory::add_bytes(*entry, b);
      FlowMemory::add_bytes(*ref_entry, b);
    }
    if (step % 3'000 == 2'999) {
      const EndIntervalPolicy end{PreservePolicy::kEarlyRemoval, 30'000,
                                  4'500};
      memory.end_interval(end);
      reference.end_interval(end);
      ++interval;
    }
  }
  expect_same_state(memory, reference);
}

TEST(TagLayout, PreserveAndEarlyRemovalCompactionsMatchReference) {
  // Deterministic eviction shapes: a few heavy flows over threshold, a
  // band of new-this-interval flows, and small old flows that must be
  // evicted; the post-compaction placement (probe chains re-packed from
  // scratch) must match the reference slot for slot.
  for (const PreservePolicy policy :
       {PreservePolicy::kPreserve, PreservePolicy::kEarlyRemoval}) {
    FlowMemory memory(64, 17);
    ReferenceFlowMemory reference(64, 17);
    const EndIntervalPolicy end{policy, 10'000, 1'500};
    for (std::uint32_t i = 0; i < 48; ++i) {
      FlowEntry* entry = memory.insert(key(i), 0);
      FlowEntry* ref_entry = reference.insert(key(i), 0);
      ASSERT_NE(entry, nullptr);
      ASSERT_NE(ref_entry, nullptr);
      // i % 3 == 0 -> heavy, i % 3 == 1 -> early-removal band, else tiny.
      const common::ByteCount b =
          i % 3 == 0 ? 20'000U : (i % 3 == 1 ? 2'000U : 100U);
      FlowMemory::add_bytes(*entry, b);
      FlowMemory::add_bytes(*ref_entry, b);
    }
    memory.end_interval(end);
    reference.end_interval(end);
    expect_same_state(memory, reference);
    // Survivors are exact next interval and findable through the
    // re-packed chains.
    for (std::uint32_t i = 0; i < 48; ++i) {
      FlowEntry* entry = memory.find(key(i));
      FlowEntry* ref_entry = reference.find(key(i));
      ASSERT_EQ(entry == nullptr, ref_entry == nullptr) << i;
      if (entry != nullptr) {
        EXPECT_TRUE(entry->exact_this_interval);
        EXPECT_EQ(entry->bytes_current, 0U);
        EXPECT_EQ(entry->bytes_lifetime, ref_entry->bytes_lifetime);
      }
    }
    expect_same_state(memory, reference);
  }
}

TEST(TagLayout, CheckpointRoundTripRebuildsTags) {
  // save -> restore into a fresh table: the tag array is derived state,
  // so lookups (including negatives) must behave identically after the
  // round trip, and a re-save must be byte-identical.
  FlowMemory memory(32, 23);
  for (std::uint32_t i = 0; i < 30; ++i) {
    FlowEntry* entry = memory.insert(key(i), 0);
    ASSERT_NE(entry, nullptr);
    FlowMemory::add_bytes(*entry, 100U * (i + 1));
  }
  common::StateWriter saved;
  memory.save_state(saved);
  FlowMemory restored(32, 23);
  common::StateReader reader(saved.bytes());
  restored.restore_state(reader);
  for (std::uint32_t i = 0; i < 30; ++i) {
    FlowEntry* entry = restored.find(key(i));
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->bytes_current, 100U * (i + 1));
  }
  EXPECT_EQ(restored.find(key(500)), nullptr);
  common::StateWriter resaved;
  restored.save_state(resaved);
  // find() bumped accesses_ since the save; compare modulo that by
  // saving from the original after the same number of extra finds.
  for (std::uint32_t i = 0; i < 30; ++i) (void)memory.find(key(i));
  (void)memory.find(key(500));
  common::StateWriter original;
  memory.save_state(original);
  EXPECT_EQ(resaved.bytes(), original.bytes());
}

}  // namespace
}  // namespace nd::flowmem
