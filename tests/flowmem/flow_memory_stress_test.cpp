// Randomized reference-model stress tests: FlowMemory must agree with a
// plain std::unordered_map across long random insert/update/end-interval
// workloads (as long as capacity is never the binding constraint).
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "flowmem/flow_memory.hpp"

namespace nd::flowmem {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

struct ReferenceEntry {
  common::ByteCount current{0};
  common::ByteCount lifetime{0};
  bool created_this_interval{true};
};

using Reference = std::unordered_map<std::uint32_t, ReferenceEntry>;

void reference_end_interval(Reference& reference,
                            const EndIntervalPolicy& policy) {
  for (auto it = reference.begin(); it != reference.end();) {
    bool keep = false;
    switch (policy.policy) {
      case PreservePolicy::kClear:
        break;
      case PreservePolicy::kPreserve:
        keep = it->second.current >= policy.threshold ||
               it->second.created_this_interval;
        break;
      case PreservePolicy::kEarlyRemoval:
        keep = it->second.current >= policy.threshold ||
               (it->second.created_this_interval &&
                it->second.current >= policy.early_removal_threshold);
        break;
    }
    if (!keep) {
      it = reference.erase(it);
    } else {
      it->second.current = 0;
      it->second.created_this_interval = false;
      ++it;
    }
  }
}

class FlowMemoryStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowMemoryStress, AgreesWithReferenceModel) {
  common::Rng rng(GetParam());
  FlowMemory memory(4096, GetParam() ^ 0xAA);
  Reference reference;

  for (int step = 0; step < 30'000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform(2000));
    const auto bytes = static_cast<std::uint32_t>(40 + rng.uniform(1460));

    FlowEntry* entry = memory.find(key(id));
    auto ref_it = reference.find(id);
    ASSERT_EQ(entry != nullptr, ref_it != reference.end()) << id;

    if (entry == nullptr) {
      entry = memory.insert(key(id), 0);
      ASSERT_NE(entry, nullptr);  // capacity 4096 > 2000 ids
      ref_it = reference.emplace(id, ReferenceEntry{}).first;
    }
    FlowMemory::add_bytes(*entry, bytes);
    ref_it->second.current += bytes;
    ref_it->second.lifetime += bytes;
    ASSERT_EQ(entry->bytes_current, ref_it->second.current);

    if (step % 5000 == 4999) {
      EndIntervalPolicy policy;
      const auto roll = rng.uniform(3);
      policy.policy = roll == 0   ? PreservePolicy::kClear
                      : roll == 1 ? PreservePolicy::kPreserve
                                  : PreservePolicy::kEarlyRemoval;
      policy.threshold = 20'000;
      policy.early_removal_threshold = 3'000;
      memory.end_interval(policy);
      reference_end_interval(reference, policy);
      ASSERT_EQ(memory.entries_used(), reference.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowMemoryStress,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace nd::flowmem
