// The interval close that visits only occupied slots against the full
// rebuild it replaced (wipe every slot, reinsert the survivors), kept
// here as ReferenceFlowMemory::end_interval. Placement decides probe
// chains and checkpoint bytes, so after every close the two tables must
// save byte-identical state and visit the same entries in the same
// order.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "../support/reference_flow_memory.hpp"
#include "common/state_buffer.hpp"
#include "flowmem/flow_memory.hpp"

namespace nd::flowmem {
namespace {

using nd::testing::ReferenceFlowMemory;

constexpr PreservePolicy kPolicies[] = {PreservePolicy::kClear,
                                        PreservePolicy::kPreserve,
                                        PreservePolicy::kEarlyRemoval};

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

struct Visited {
  packet::FlowKey key;
  common::ByteCount bytes_current;
  common::ByteCount bytes_lifetime;
  common::IntervalIndex created_interval;
  bool created_this_interval;
  bool exact_this_interval;

  bool operator==(const Visited&) const = default;
};

template <typename Memory>
std::vector<Visited> visit_order(const Memory& memory) {
  std::vector<Visited> out;
  memory.for_each([&out](const FlowEntry& e) {
    out.push_back(Visited{e.key, e.bytes_current, e.bytes_lifetime,
                          e.created_interval, e.created_this_interval,
                          e.exact_this_interval});
  });
  return out;
}

void expect_same(const FlowMemory& actual,
                 const ReferenceFlowMemory& expected) {
  ASSERT_EQ(actual.entries_used(), expected.entries_used());
  common::StateWriter actual_state;
  common::StateWriter expected_state;
  actual.save_state(actual_state);
  expected.save_state(expected_state);
  EXPECT_EQ(actual_state.bytes(), expected_state.bytes());
  EXPECT_TRUE(visit_order(actual) == visit_order(expected));
}

/// Count `packets` random packets over `key_space` keys into both
/// tables, inserting on a miss exactly like the devices do.
void feed(FlowMemory& memory, ReferenceFlowMemory& reference,
          std::mt19937_64& rng, std::uint32_t key_space, int packets,
          common::IntervalIndex interval) {
  std::uniform_int_distribution<std::uint32_t> key_id(0, key_space - 1);
  std::uniform_int_distribution<std::uint32_t> bytes(1, 3'000);
  for (int i = 0; i < packets; ++i) {
    const packet::FlowKey k = key(key_id(rng));
    FlowEntry* entry = memory.find(k);
    FlowEntry* ref_entry = reference.find(k);
    ASSERT_EQ(entry == nullptr, ref_entry == nullptr);
    if (entry == nullptr) {
      entry = memory.insert(k, interval);
      ref_entry = reference.insert(k, interval);
      ASSERT_EQ(entry == nullptr, ref_entry == nullptr);
    }
    if (entry == nullptr) continue;  // table full
    const std::uint32_t b = bytes(rng);
    FlowMemory::add_bytes(*entry, b);
    FlowMemory::add_bytes(*ref_entry, b);
  }
}

TEST(FlowMemoryClose, RandomFillsMatchFullRebuild) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const PreservePolicy policy : kPolicies) {
      std::mt19937_64 rng(seed * 3 + static_cast<std::uint64_t>(policy));
      const std::size_t capacity = 8 + rng() % 300;
      FlowMemory memory(capacity, seed);
      ReferenceFlowMemory reference(capacity, seed);
      // Key spaces from well under to well over capacity: sparse
      // tables, full tables and failed inserts all occur.
      const auto key_space =
          static_cast<std::uint32_t>(capacity / 2 + rng() % (capacity * 2));
      const EndIntervalPolicy end{policy, 6'000, 1'000};
      for (common::IntervalIndex interval = 0; interval < 6; ++interval) {
        feed(memory, reference, rng, key_space,
             static_cast<int>(rng() % (capacity * 4)), interval);
        memory.end_interval(end);
        reference.end_interval(end);
        expect_same(memory, reference);
        if (::testing::Test::HasFailure()) {
          FAIL() << "seed " << seed << " policy "
                 << static_cast<int>(policy) << " interval " << interval;
        }
      }
    }
  }
}

TEST(FlowMemoryClose, EmptyTable) {
  for (const PreservePolicy policy : kPolicies) {
    FlowMemory memory(64, 5);
    ReferenceFlowMemory reference(64, 5);
    const EndIntervalPolicy end{policy, 6'000, 1'000};
    memory.end_interval(end);
    reference.end_interval(end);
    expect_same(memory, reference);
    EXPECT_EQ(memory.entries_used(), 0U);
    // A close of an emptied table, and a table refilled after it.
    memory.end_interval(end);
    reference.end_interval(end);
    expect_same(memory, reference);
    std::mt19937_64 rng(11);
    feed(memory, reference, rng, 40, 200, 2);
    memory.end_interval(end);
    reference.end_interval(end);
    expect_same(memory, reference);
  }
}

TEST(FlowMemoryClose, FullTable) {
  for (const PreservePolicy policy : kPolicies) {
    constexpr std::size_t kCapacity = 128;
    FlowMemory memory(kCapacity, 9);
    ReferenceFlowMemory reference(kCapacity, 9);
    std::mt19937_64 rng(21);
    const EndIntervalPolicy end{policy, 6'000, 1'000};
    for (common::IntervalIndex interval = 0; interval < 4; ++interval) {
      feed(memory, reference, rng, 1'000, 4'000, interval);
      ASSERT_EQ(memory.entries_used(), kCapacity);
      memory.end_interval(end);
      reference.end_interval(end);
      expect_same(memory, reference);
    }
  }
}

TEST(FlowMemoryClose, ProbeChainsWrappingPastTheTableEnd) {
  // Keys whose home is one of the last two slots: their chain runs off
  // the end of the table and continues at slot 0.
  constexpr std::size_t kCapacity = 32;  // 64 slots
  constexpr std::size_t kSlots = 64;
  FlowMemory probe(kCapacity, 3);
  std::vector<packet::FlowKey> tail_keys;
  for (std::uint32_t i = 0; tail_keys.size() < 6; ++i) {
    const packet::FlowKey k = key(i);
    if ((probe.hash_of(k.fingerprint()) & (kSlots - 1)) >= kSlots - 2) {
      tail_keys.push_back(k);
    }
  }
  for (const PreservePolicy policy : kPolicies) {
    FlowMemory memory(kCapacity, 3);
    ReferenceFlowMemory reference(kCapacity, 3);
    for (std::size_t i = 0; i < tail_keys.size(); ++i) {
      FlowEntry* entry = memory.insert(tail_keys[i], 0);
      FlowEntry* ref_entry = reference.insert(tail_keys[i], 0);
      ASSERT_NE(entry, nullptr);
      ASSERT_NE(ref_entry, nullptr);
      // Alternate heavy and light so the policies keep different sets.
      const common::ByteCount b = i % 2 == 0 ? 9'000 : 10;
      FlowMemory::add_bytes(*entry, b);
      FlowMemory::add_bytes(*ref_entry, b);
    }
    ASSERT_TRUE(reference.slot(0).occupied) << "no chain wrapped";
    std::mt19937_64 rng(5);
    feed(memory, reference, rng, 60, 100, 0);
    const EndIntervalPolicy end{policy, 6'000, 1'000};
    for (common::IntervalIndex interval = 1; interval < 4; ++interval) {
      memory.end_interval(end);
      reference.end_interval(end);
      expect_same(memory, reference);
      feed(memory, reference, rng, 60, 100, interval);
    }
  }
}

}  // namespace
}  // namespace nd::flowmem
