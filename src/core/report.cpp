#include "core/device.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/format.hpp"

namespace nd::core {

void sort_by_size(Report& report) {
  std::vector<ReportedFlow>& flows = report.flows;
  const auto larger = [](const ReportedFlow& a, const ReportedFlow& b) {
    return a.estimated_bytes > b.estimated_bytes;
  };
  // A stable sort leaves sorted input as it is, so the O(n) check gives
  // the same order and makes a second sort of one report a scan.
  if (std::is_sorted(flows.begin(), flows.end(), larger)) return;

  // Stable LSD radix sort of the keys (max - estimate) << index_bits |
  // index: ascending keys are descending estimates, ties in input order.
  // The passes cover the estimate bits only; the index bits start in
  // order, stay in order (each pass is stable) and name the flow each
  // sorted position takes. A comparison sort, even of (size, index)
  // pairs, measured slower: its cost is branch misses.
  const std::size_t n = flows.size();
  common::ByteCount max = 0;
  common::ByteCount min = std::numeric_limits<common::ByteCount>::max();
  for (const ReportedFlow& flow : flows) {
    max = std::max(max, flow.estimated_bytes);
    min = std::min(min, flow.estimated_bytes);
  }
  const auto index_bits = static_cast<int>(std::bit_width(n - 1));
  const int end_bit =
      index_bits + static_cast<int>(std::bit_width(max - min));
  if (end_bit > 64) {
    std::stable_sort(flows.begin(), flows.end(), larger);
    return;
  }
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint64_t> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = ((max - flows[i].estimated_bytes) << index_bits) | i;
  }
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (1U << kDigitBits) - 1;
  std::array<std::size_t, 1U << kDigitBits> starts;
  for (int shift = index_bits; shift < end_bit; shift += kDigitBits) {
    starts.fill(0);
    for (const std::uint64_t key : keys) {
      ++starts[(key >> shift) & kDigitMask];
    }
    // A pass whose keys share one digit would not move any of them.
    if (starts[(keys[0] >> shift) & kDigitMask] == n) continue;
    std::size_t start = 0;
    for (std::size_t& count : starts) start += std::exchange(count, start);
    for (const std::uint64_t key : keys) {
      sorted[starts[(key >> shift) & kDigitMask]++] = key;
    }
    keys.swap(sorted);
  }

  // Move each flow to its sorted position in place, one permutation
  // cycle at a time (a second flow vector would cost a report's size in
  // peak memory). A position whose key holds its own index is done.
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t from = keys[i] & index_mask;
    if (from == i) continue;
    const ReportedFlow held = flows[i];
    std::size_t to = i;
    do {
      flows[to] = flows[from];
      keys[to] = to;
      to = from;
      from = keys[to] & index_mask;
    } while (from != i);
    flows[to] = held;
    keys[to] = to;
  }
}

void append_flow_line(std::string& out, const ReportedFlow& flow) {
  // printf "  %-45s %14s%s\n": the key is padded, never truncated, and
  // the byte count is right-aligned in 14 columns. The line is built in
  // a stack buffer and appended once; the pads are fixed-width stores
  // that the next field overwrites where it reaches.
  constexpr std::size_t kKeyColumns = 45;
  constexpr std::size_t kBytesColumns = 14;
  // Widest reach: 2 + a 51-char key + its 46-byte pad store.
  char line[128];
  line[0] = ' ';
  line[1] = ' ';
  char* const key = line + 2;
  char* end = flow.key.write_to(key);
  std::memset(end, ' ', kKeyColumns + 1);
  end = std::max(end, key + kKeyColumns) + 1;

  char bytes[common::kMaxBytesChars + common::kWriteSlack];
  const char* const bytes_end =
      common::write_bytes(bytes, flow.estimated_bytes);
  const auto width = static_cast<std::size_t>(bytes_end - bytes);
  std::memset(end, ' ', kBytesColumns);
  if (width < kBytesColumns) end += kBytesColumns - width;
  std::memcpy(end, bytes, sizeof(bytes));
  end += width;
  if (flow.exact) {
    std::memcpy(end, "  (exact)", 9);
    end += 9;
  }
  *end++ = '\n';
  out.append(line, end);
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

}  // namespace nd::core
