#include "core/device.hpp"

#include <algorithm>

#include "common/format.hpp"
#include "hash/hash.hpp"

namespace nd::core {

void sort_by_size(Report& report) {
  const auto larger = [](const ReportedFlow& a, const ReportedFlow& b) {
    return a.estimated_bytes > b.estimated_bytes;
  };
  // A stable sort leaves sorted input as it is, so the O(n) check gives
  // the same order and makes a second sort of one report a scan.
  if (std::is_sorted(report.flows.begin(), report.flows.end(), larger)) {
    return;
  }
  std::stable_sort(report.flows.begin(), report.flows.end(), larger);
}

void append_flow_line(std::string& out, const ReportedFlow& flow) {
  // printf "  %-45s %14s%s\n": the key is padded, never truncated, and
  // the byte count is right-aligned in 14 columns.
  constexpr std::size_t kKeyColumns = 45;
  constexpr std::size_t kBytesColumns = 14;
  out.append("  ");
  const std::size_t key_start = out.size();
  flow.key.append_to(out);
  const std::size_t key_width = out.size() - key_start;
  if (key_width < kKeyColumns) out.append(kKeyColumns - key_width, ' ');
  out.push_back(' ');
  const std::size_t bytes_start = out.size();
  common::append_bytes(out, flow.estimated_bytes);
  const std::size_t bytes_width = out.size() - bytes_start;
  if (bytes_width < kBytesColumns) {
    out.insert(bytes_start, kBytesColumns - bytes_width, ' ');
  }
  if (flow.exact) out.append("  (exact)");
  out.push_back('\n');
}

const ReportedFlow* find_flow(const Report& report,
                              const packet::FlowKey& key) {
  for (const auto& flow : report.flows) {
    if (flow.key == key) return &flow;
  }
  return nullptr;
}

common::ByteCount effective_threshold(const Report& report) {
  common::ByteCount max = report.threshold;
  for (const ShardStatus& shard : report.shards) {
    max = std::max(max, shard.threshold);
  }
  return max;
}

ShardStatus make_shard_status(const Report& report, std::size_t capacity,
                              std::uint64_t packets,
                              common::ByteCount bytes) {
  ShardStatus status;
  status.threshold = report.threshold;
  status.next_threshold = report.threshold;
  status.entries_used = report.entries_used;
  status.capacity = capacity;
  status.smoothed_usage =
      capacity == 0 ? 0.0
                    : static_cast<double>(report.entries_used) /
                          static_cast<double>(capacity);
  status.packets = packets;
  status.bytes = bytes;
  return status;
}

Report merge_member_reports(common::IntervalIndex interval,
                            std::span<const Report> members) {
  Report merged;
  merged.interval = interval;
  std::size_t flows = 0;
  std::size_t statuses = 0;
  for (const Report& member : members) {
    flows += member.flows.size();
    statuses += member.shards.size();
  }
  merged.flows.reserve(flows);
  merged.shards.reserve(statuses);
  for (const Report& member : members) {
    for (const ShardStatus& status : member.shards) {
      merged.threshold = std::max(merged.threshold, status.threshold);
      merged.entries_used += status.entries_used;
      merged.shards.push_back(status);
    }
    merged.flows.insert(merged.flows.end(), member.flows.begin(),
                        member.flows.end());
  }
  return merged;
}

std::uint32_t shard_route(std::uint64_t seed, std::uint32_t shards,
                          std::uint64_t fingerprint) {
  // splitmix the salted fingerprint so shard routing stays uncorrelated
  // with the inner devices' stage hashes and flow-memory placement.
  const std::uint64_t salt = hash::splitmix64(seed ^ 0x5AD0FF5E7ULL);
  return static_cast<std::uint32_t>(hash::reduce_to_range(
      hash::splitmix64(fingerprint ^ salt), shards));
}

}  // namespace nd::core
