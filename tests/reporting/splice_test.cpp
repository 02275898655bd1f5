// The collector's byte-level data plane: the canonical-record check it
// applies at ingest (reporting::check_flow_records) against encode(),
// and the merge it splices from member bytes (reporting::splice)
// against core::merge_member_reports + core::sort_by_size + encode on
// seeded member sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "reporting/record_codec.hpp"

namespace nd::reporting {
namespace {

constexpr packet::FlowKeyKind kKinds[] = {
    packet::FlowKeyKind::kFiveTuple, packet::FlowKeyKind::kDestinationIp,
    packet::FlowKeyKind::kAsPair, packet::FlowKeyKind::kNetworkPair};

packet::FlowKey random_key(packet::FlowKeyKind kind, std::mt19937_64& rng) {
  const auto u32 = [&] { return static_cast<std::uint32_t>(rng()); };
  switch (kind) {
    case packet::FlowKeyKind::kFiveTuple:
      return packet::FlowKey::five_tuple(
          u32(), u32(), static_cast<std::uint16_t>(rng()),
          static_cast<std::uint16_t>(rng()),
          static_cast<packet::IpProtocol>(rng() % 256));
    case packet::FlowKeyKind::kDestinationIp:
      return packet::FlowKey::destination_ip(u32());
    case packet::FlowKeyKind::kAsPair:
      return packet::FlowKey::as_pair(u32(), u32());
    case packet::FlowKeyKind::kNetworkPair:
      return packet::FlowKey::network_pair(
          u32(), u32(), static_cast<std::uint8_t>(rng() % 33));
  }
  return {};
}

/// A report of `flows` random flows of `kind` whose estimates are drawn
/// from `distinct` values (few values: many ties), largest-first when
/// `sorted`, with `shards` random shard records.
core::Report random_report(packet::FlowKeyKind kind, std::mt19937_64& rng,
                           std::size_t flows, std::size_t shards,
                           std::uint64_t distinct, bool sorted) {
  core::Report report;
  report.interval = 9;
  report.threshold = rng() % 100'000;
  for (std::size_t i = 0; i < flows; ++i) {
    report.flows.push_back(core::ReportedFlow{
        random_key(kind, rng), 1'000 * (1 + rng() % distinct),
        rng() % 2 == 0});
  }
  if (sorted) core::sort_by_size(report);
  for (std::size_t s = 0; s < shards; ++s) {
    core::ShardStatus status;
    status.threshold = rng() % 1'000'000;
    status.next_threshold = rng() % 1'000'000;
    status.capacity = 1'000;
    status.entries_used = rng() % 1'000;
    status.smoothed_usage = static_cast<double>(rng() % 1'000) / 1'000.0;
    status.packets = rng() % 100'000;
    status.bytes = rng() % 10'000'000;
    report.shards.push_back(status);
  }
  return report;
}

TEST(CanonicalRecords, EncodeOutputPassesForEveryKind) {
  std::mt19937_64 rng(1);
  for (const packet::FlowKeyKind kind : kKinds) {
    for (int trial = 0; trial < 20; ++trial) {
      const bool sorted = trial % 2 == 0;
      const core::Report report =
          random_report(kind, rng, rng() % 40, rng() % 3, 8, sorted);
      const std::string trailer = trial % 3 == 0 ? "{\"m\":1}" : "";
      const std::vector<std::uint8_t> bytes = encode(report, kind, trailer);
      const ReportLayout layout = layout_of(bytes);
      EXPECT_EQ(layout.kind, kind);
      EXPECT_EQ(layout.interval, report.interval);
      EXPECT_EQ(layout.threshold, report.threshold);
      EXPECT_EQ(layout.flows(), report.flows.size());
      EXPECT_EQ(layout.shards(), report.shards.size());
      EXPECT_EQ(layout.metrics_json, trailer);
      EXPECT_EQ(layout.body.size(), encoded_size(report));
      std::uint64_t entries = 0;
      for (const auto& shard : report.shards) entries += shard.entries_used;
      EXPECT_EQ(layout.entries_used(), entries);
      bool largest_first = true;
      for (std::size_t i = 1; i < report.flows.size(); ++i) {
        largest_first =
            largest_first && report.flows[i].estimated_bytes <=
                                 report.flows[i - 1].estimated_bytes;
      }
      EXPECT_EQ(check_flow_records(layout), largest_first);
    }
  }
}

// Canonical means: the bytes encode() writes for the key the record
// decodes to. So every byte flip in a flow record must be accepted
// exactly when decode + encode gives the flipped bytes back.
TEST(CanonicalRecords, EveryNonCanonicalByteIsRejected) {
  std::mt19937_64 rng(2);
  for (const packet::FlowKeyKind kind : kKinds) {
    const core::Report report = random_report(kind, rng, 3, 1, 100, true);
    const std::vector<std::uint8_t> bytes = encode(report, kind);
    std::size_t rejected = 0;
    for (std::size_t at = kHeaderBytes;
         at < kHeaderBytes + 3 * kRecordBytes; ++at) {
      for (const std::uint8_t flip :
           {std::uint8_t{0x01}, std::uint8_t{0x02}, std::uint8_t{0x80},
            std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[at] ^= flip;
        const bool canonical =
            encode(decode(mutated), kind) == mutated;
        const ReportLayout layout = layout_of(mutated);
        if (canonical) {
          EXPECT_NO_THROW((void)check_flow_records(layout))
              << "kind " << static_cast<int>(kind) << " byte " << at;
        } else {
          ++rejected;
          EXPECT_THROW((void)check_flow_records(layout), CodecError)
              << "kind " << static_cast<int>(kind) << " byte " << at
              << " flip " << static_cast<int>(flip);
        }
      }
    }
    EXPECT_GT(rejected, 0u);
  }
}

TEST(CanonicalRecords, NamedNonCanonicalFieldsAreRejected) {
  std::mt19937_64 rng(3);
  // (kind, byte offset in the record, value) that encode() never writes.
  struct Case {
    packet::FlowKeyKind kind;
    std::size_t offset;
    std::uint8_t value;
  };
  const Case cases[] = {
      {packet::FlowKeyKind::kFiveTuple, 14, 1},       // reserved u16
      {packet::FlowKeyKind::kFiveTuple, 15, 1},       // reserved u16
      {packet::FlowKeyKind::kFiveTuple, 13, 2},       // exact > 1
      {packet::FlowKeyKind::kDestinationIp, 0, 1},    // a
      {packet::FlowKeyKind::kDestinationIp, 3, 1},    // a
      {packet::FlowKeyKind::kDestinationIp, 9, 1},    // c
      {packet::FlowKeyKind::kDestinationIp, 11, 1},   // d
      {packet::FlowKeyKind::kDestinationIp, 12, 17},  // protocol
      {packet::FlowKeyKind::kAsPair, 8, 1},           // c
      {packet::FlowKeyKind::kAsPair, 10, 1},          // d
      {packet::FlowKeyKind::kAsPair, 12, 1},          // protocol
      {packet::FlowKeyKind::kNetworkPair, 8, 1},      // c > 255
      {packet::FlowKeyKind::kNetworkPair, 10, 1},     // d
      {packet::FlowKeyKind::kNetworkPair, 12, 0},     // protocol
      {packet::FlowKeyKind::kNetworkPair, 14, 1},     // reserved u16
  };
  for (const Case& test : cases) {
    std::vector<std::uint8_t> bytes =
        encode(random_report(test.kind, rng, 2, 0, 10, true), test.kind);
    bytes[kHeaderBytes + kRecordBytes + test.offset] = test.value;
    EXPECT_THROW((void)check_flow_records(layout_of(bytes)), CodecError)
        << "kind " << static_cast<int>(test.kind) << " offset "
        << test.offset;
  }
}

/// What the collector exported before it spliced: decode each member,
/// merge them, sort the merge largest-first, encode it.
std::vector<std::uint8_t> decoded_merge(
    common::IntervalIndex interval, packet::FlowKeyKind kind,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<core::Report> members;
  for (const auto& payload : payloads) members.push_back(decode(payload));
  core::Report merged = core::merge_member_reports(interval, members);
  core::sort_by_size(merged);
  return encode(merged, kind);
}

std::vector<std::uint8_t> spliced_merge(
    common::IntervalIndex interval, packet::FlowKeyKind kind,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<SpliceMember> members;
  for (const auto& payload : payloads) {
    const ReportLayout layout = layout_of(payload);
    members.push_back({layout.body, check_flow_records(layout)});
  }
  std::vector<std::uint8_t> out = {0xAA, 0xBB};  // replaced, not appended
  splice(out, interval, kind, members);
  return out;
}

TEST(Splice, MatchesSortedMergeEncodeOnRandomMemberSets) {
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 400; ++trial) {
    const packet::FlowKeyKind kind = kKinds[trial % 4];
    const std::size_t member_count = 1 + rng() % 4;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t m = 0; m < member_count; ++m) {
      // Some members are empty, a few are not largest-first, and the
      // estimates repeat across members so ties need member order.
      const std::size_t flows = rng() % 5 == 0 ? 0 : rng() % 60;
      const bool sorted = rng() % 4 != 0;
      const core::Report member =
          random_report(kind, rng, flows, rng() % 3, 1 + rng() % 6, sorted);
      payloads.push_back(
          encode(member, kind, rng() % 2 == 0 ? "{\"m\":2}\n" : ""));
    }
    const auto interval = static_cast<common::IntervalIndex>(rng() % 50);
    EXPECT_EQ(spliced_merge(interval, kind, payloads),
              decoded_merge(interval, kind, payloads))
        << "trial " << trial;
  }
}

TEST(Splice, EdgeMemberSets) {
  std::mt19937_64 rng(5);
  const auto kind = packet::FlowKeyKind::kFiveTuple;
  const auto member = [&](std::size_t flows, std::size_t shards,
                          bool sorted) {
    return encode(random_report(kind, rng, flows, shards, 2, sorted), kind);
  };
  const std::vector<std::vector<std::vector<std::uint8_t>>> sets = {
      {},                                          // no members at all
      {member(0, 0, true)},                        // one empty member
      {member(0, 1, true), member(0, 2, true)},    // flowless fleet
      {member(50, 1, false)},                      // one unsorted member
      {member(30, 0, true), member(30, 0, true)},  // two estimate values
      {member(0, 1, true), member(20, 1, false), member(20, 1, true)},
  };
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(spliced_merge(3, kind, sets[i]), decoded_merge(3, kind, sets[i]))
        << "set " << i;
  }
}

TEST(Splice, RefusesMoreShardsThanTheWireCarries) {
  std::mt19937_64 rng(6);
  const auto kind = packet::FlowKeyKind::kDestinationIp;
  const std::vector<std::vector<std::uint8_t>> payloads = {
      encode(random_report(kind, rng, 2, 200, 4, true), kind),
      encode(random_report(kind, rng, 2, 56, 4, true), kind)};
  EXPECT_THROW((void)spliced_merge(0, kind, payloads), CodecError);
  EXPECT_THROW((void)decoded_merge(0, kind, payloads), CodecError);
}

}  // namespace
}  // namespace nd::reporting
