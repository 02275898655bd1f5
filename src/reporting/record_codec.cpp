#include "reporting/record_codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/byte_order.hpp"
#include "reporting/wal.hpp"

namespace nd::reporting {

using common::load_be16;
using common::load_be32;
using common::load_be64;
using common::store_be16;
using common::store_be32;
using common::store_be64;

static_assert(kFrameHeaderBytes == wal::kHeaderBytes);

std::size_t encoded_size(const core::Report& report) {
  return kHeaderBytes + report.flows.size() * kRecordBytes +
         report.shards.size() * kShardRecordBytes;
}

std::size_t encoded_size(const core::Report& report,
                         std::size_t metrics_json_bytes) {
  return encoded_size(report) +
         (metrics_json_bytes == 0
              ? 0
              : kTrailerLengthBytes + metrics_json_bytes);
}

namespace {

// Field offsets in a flow record: a, b, c, d, protocol, exact, the
// reserved u16, the estimate.
constexpr std::size_t kFlowA = 0;
constexpr std::size_t kFlowB = 4;
constexpr std::size_t kFlowC = 8;
constexpr std::size_t kFlowD = 10;
constexpr std::size_t kFlowProtocol = 12;
constexpr std::size_t kFlowExact = 13;
constexpr std::size_t kFlowReserved = 14;
constexpr std::size_t kFlowEstimate = 16;
// ... and in a shard record.
constexpr std::size_t kShardThreshold = 0;
constexpr std::size_t kShardNextThreshold = 8;
constexpr std::size_t kShardEntriesUsed = 16;
constexpr std::size_t kShardCapacity = 24;
constexpr std::size_t kShardUsage = 32;
constexpr std::size_t kShardReserved = 36;
constexpr std::size_t kShardPackets = 40;
constexpr std::size_t kShardBytes = 48;

void check_shard_count(std::size_t shards) {
  if (shards > kMaxShards) {
    throw CodecError("reporting: too many shards for the wire format");
  }
}

void store_header(std::uint8_t* out, packet::FlowKeyKind kind,
                  std::size_t shards, common::IntervalIndex interval,
                  std::size_t flows, common::ByteCount threshold) {
  store_be32(out, kMagic);
  store_be16(out + 4, kVersion);
  out[6] = static_cast<std::uint8_t>(kind);
  out[7] = static_cast<std::uint8_t>(shards);
  store_be32(out + 8, interval);
  store_be32(out + 12, static_cast<std::uint32_t>(flows));
  store_be64(out + 16, threshold);
}

}  // namespace

// Sized once, not cleared: every byte is stored over, field by field.
void encode_into(std::vector<std::uint8_t>& out, const core::Report& report,
                 packet::FlowKeyKind kind, std::string_view metrics_json) {
  check_shard_count(report.shards.size());
  if (metrics_json.size() > 0xFFFFFFFFULL) {
    throw CodecError("reporting: metrics trailer too large");
  }
  out.resize(encoded_size(report, metrics_json.size()));
  std::uint8_t* at = out.data();
  store_header(at, kind, report.shards.size(), report.interval,
               report.flows.size(), report.threshold);
  at += kHeaderBytes;
  for (const auto& flow : report.flows) {
    const packet::FlowKey& key = flow.key;
    if (key.kind() != kind) {
      throw CodecError("reporting: mixed flow-key kinds in one report");
    }
    const bool as_pair = kind == packet::FlowKeyKind::kAsPair;
    store_be32(at + kFlowA, as_pair ? key.src_as() : key.src_ip());
    store_be32(at + kFlowB, as_pair ? key.dst_as() : key.dst_ip());
    store_be16(at + kFlowC, key.src_port());
    store_be16(at + kFlowD, key.dst_port());
    at[kFlowProtocol] = static_cast<std::uint8_t>(key.protocol());
    at[kFlowExact] = flow.exact ? 1 : 0;
    store_be16(at + kFlowReserved, 0);  // reserved / alignment
    store_be64(at + kFlowEstimate, flow.estimated_bytes);
    at += kRecordBytes;
  }
  for (const auto& shard : report.shards) {
    store_be64(at + kShardThreshold, shard.threshold);
    store_be64(at + kShardNextThreshold, shard.next_threshold);
    store_be64(at + kShardEntriesUsed, shard.entries_used);
    store_be64(at + kShardCapacity, shard.capacity);
    // Smoothed usage in micro-units; entries never exceed capacity, so
    // 1e6 bounds the value and u32 is ample.
    store_be32(at + kShardUsage,
               static_cast<std::uint32_t>(shard.smoothed_usage * 1e6 + 0.5));
    store_be32(at + kShardReserved, 0);  // the decoder rejects nonzero
    store_be64(at + kShardPackets, shard.packets);
    store_be64(at + kShardBytes, shard.bytes);
    at += kShardRecordBytes;
  }
  if (!metrics_json.empty()) {
    store_be32(at, static_cast<std::uint32_t>(metrics_json.size()));
    std::memcpy(at + kTrailerLengthBytes, metrics_json.data(),
                metrics_json.size());
  }
}

std::vector<std::uint8_t> encode(const core::Report& report,
                                 packet::FlowKeyKind kind,
                                 std::string_view metrics_json) {
  std::vector<std::uint8_t> out;
  encode_into(out, report, kind, metrics_json);
  return out;
}

std::uint64_t ReportLayout::entries_used() const {
  std::uint64_t entries = 0;
  for (std::size_t off = 0; off < shard_records.size();
       off += kShardRecordBytes) {
    entries += load_be64(shard_records.data() + off + kShardEntriesUsed);
  }
  return entries;
}

ReportLayout layout_of(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderBytes) {
    throw CodecError("reporting: truncated header");
  }
  if (load_be32(data.data()) != kMagic) {
    throw CodecError("reporting: bad magic");
  }
  if (load_be16(data.data() + 4) != kVersion) {
    throw CodecError("reporting: unsupported version");
  }
  // The kind is checked here, not per record: a report with no flows
  // must not carry an unknown kind into the collector's merge either.
  ReportLayout layout;
  layout.kind = static_cast<packet::FlowKeyKind>(data[6]);
  if (layout.kind > packet::FlowKeyKind::kNetworkPair) {
    throw CodecError("reporting: unknown flow-key kind");
  }
  const std::size_t shard_count = data[7];
  layout.interval = load_be32(data.data() + 8);
  const std::size_t count = load_be32(data.data() + 12);
  layout.threshold = load_be64(data.data() + 16);

  const std::size_t flow_bytes = count * kRecordBytes;
  const std::size_t body_bytes =
      kHeaderBytes + flow_bytes + shard_count * kShardRecordBytes;
  if (data.size() < body_bytes) {
    throw CodecError("reporting: size does not match record count");
  }
  if (data.size() > body_bytes) {
    // The only bytes allowed past the shard records are the length-
    // prefixed metrics trailer, which must account for them exactly.
    if (data.size() < body_bytes + kTrailerLengthBytes) {
      throw CodecError("reporting: truncated metrics trailer");
    }
    const std::size_t trailer_len = load_be32(data.data() + body_bytes);
    if (trailer_len == 0 ||
        data.size() != body_bytes + kTrailerLengthBytes + trailer_len) {
      throw CodecError("reporting: metrics trailer length mismatch");
    }
    layout.metrics_json = std::string_view(
        reinterpret_cast<const char*>(
            data.data() + body_bytes + kTrailerLengthBytes),
        trailer_len);
  }
  layout.body = data.first(body_bytes);
  layout.flow_records = data.subspan(kHeaderBytes, flow_bytes);
  layout.shard_records = data.subspan(kHeaderBytes + flow_bytes,
                                      shard_count * kShardRecordBytes);
  for (std::size_t off = 0; off < layout.shard_records.size();
       off += kShardRecordBytes) {
    if (load_be32(layout.shard_records.data() + off + kShardReserved) != 0) {
      throw CodecError("reporting: nonzero reserved word in shard record");
    }
  }
  return layout;
}

bool check_flow_records(const ReportLayout& layout) {
  // The fields a kind leaves unused hold what its FlowKey factory
  // stores there: 0, and protocol TCP for every kind but the 5-tuple.
  const auto kind = layout.kind;
  const bool a_used = kind != packet::FlowKeyKind::kDestinationIp;
  const bool ports_used = kind == packet::FlowKeyKind::kFiveTuple;
  const std::uint16_t c_max =
      ports_used ? 0xFFFF
                 : (kind == packet::FlowKeyKind::kNetworkPair ? 0xFF : 0);
  const auto tcp = static_cast<std::uint8_t>(packet::IpProtocol::kTcp);
  bool largest_first = true;
  common::ByteCount previous = std::numeric_limits<common::ByteCount>::max();
  const std::uint8_t* record = layout.flow_records.data();
  const std::uint8_t* const end = record + layout.flow_records.size();
  for (; record != end; record += kRecordBytes) {
    const bool canonical =
        load_be16(record + kFlowReserved) == 0 && record[kFlowExact] <= 1 &&
        (a_used || load_be32(record + kFlowA) == 0) &&
        load_be16(record + kFlowC) <= c_max &&
        (ports_used || (load_be16(record + kFlowD) == 0 &&
                        record[kFlowProtocol] == tcp));
    if (!canonical) {
      throw CodecError("reporting: flow record is not canonical");
    }
    const common::ByteCount estimate = load_be64(record + kFlowEstimate);
    largest_first = largest_first && estimate <= previous;
    previous = estimate;
  }
  return largest_first;
}

DecodedReport decode_full(std::span<const std::uint8_t> data) {
  const ReportLayout layout = layout_of(data);
  DecodedReport decoded;
  decoded.kind = layout.kind;
  decoded.metrics_json = layout.metrics_json;
  core::Report& report = decoded.report;
  report.interval = layout.interval;
  report.threshold = layout.threshold;
  report.flows.reserve(layout.flows());
  for (std::size_t off = 0; off < layout.flow_records.size();
       off += kRecordBytes) {
    const std::uint8_t* record = layout.flow_records.data() + off;
    const std::uint32_t a = load_be32(record + kFlowA);
    const std::uint32_t b = load_be32(record + kFlowB);
    const std::uint16_t c = load_be16(record + kFlowC);
    const std::uint16_t d = load_be16(record + kFlowD);
    const auto proto = static_cast<packet::IpProtocol>(record[kFlowProtocol]);
    const bool exact = record[kFlowExact] != 0;
    const common::ByteCount bytes = load_be64(record + kFlowEstimate);

    packet::FlowKey key;
    switch (layout.kind) {
      case packet::FlowKeyKind::kFiveTuple:
        key = packet::FlowKey::five_tuple(a, b, c, d, proto);
        break;
      case packet::FlowKeyKind::kDestinationIp:
        key = packet::FlowKey::destination_ip(b);
        break;
      case packet::FlowKeyKind::kAsPair:
        key = packet::FlowKey::as_pair(a, b);
        break;
      case packet::FlowKeyKind::kNetworkPair:
        key = packet::FlowKey::network_pair(a, b,
                                            static_cast<std::uint8_t>(c));
        break;
    }
    report.flows.push_back(core::ReportedFlow{key, bytes, exact});
  }
  report.shards.reserve(layout.shards());
  for (std::size_t off = 0; off < layout.shard_records.size();
       off += kShardRecordBytes) {
    const std::uint8_t* record = layout.shard_records.data() + off;
    core::ShardStatus status;
    status.threshold = load_be64(record + kShardThreshold);
    status.next_threshold = load_be64(record + kShardNextThreshold);
    status.entries_used = load_be64(record + kShardEntriesUsed);
    status.capacity = load_be64(record + kShardCapacity);
    status.smoothed_usage =
        static_cast<double>(load_be32(record + kShardUsage)) / 1e6;
    status.packets = load_be64(record + kShardPackets);
    status.bytes = load_be64(record + kShardBytes);
    report.shards.push_back(status);
  }
  return decoded;
}

core::Report decode(std::span<const std::uint8_t> data) {
  return decode_full(data).report;
}

namespace {

common::ByteCount estimate_of(const std::uint8_t* record) {
  return load_be64(record + kFlowEstimate);
}

/// `records` reordered largest-first, ties in input order: what
/// core::sort_by_size does to the decoded flows.
std::vector<std::uint8_t> sorted_largest_first(
    std::span<const std::uint8_t> records) {
  std::vector<std::uint32_t> order(records.size() / kRecordBytes);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return estimate_of(records.data() + x * kRecordBytes) >
                            estimate_of(records.data() + y * kRecordBytes);
                   });
  std::vector<std::uint8_t> sorted(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::memcpy(sorted.data() + i * kRecordBytes,
                records.data() + std::size_t{order[i]} * kRecordBytes,
                kRecordBytes);
  }
  return sorted;
}

}  // namespace

void splice(std::vector<std::uint8_t>& out, common::IntervalIndex interval,
            packet::FlowKeyKind kind, std::span<const SpliceMember> members) {
  // Each member's flow records as a largest-first run; a member that is
  // not largest-first is sorted into `sorted` first (rare: devices
  // ship their reports sorted).
  struct Run {
    const std::uint8_t* at;
    const std::uint8_t* end;
  };
  std::vector<Run> runs;
  runs.reserve(members.size());
  std::vector<std::vector<std::uint8_t>> sorted;
  std::size_t flows = 0;
  std::size_t shards = 0;
  common::ByteCount threshold = 0;
  for (const SpliceMember& member : members) {
    const std::span<const std::uint8_t> body = member.body;
    const std::size_t count = load_be32(body.data() + 12);
    const std::span<const std::uint8_t> records =
        body.subspan(kHeaderBytes, count * kRecordBytes);
    if (member.largest_first) {
      runs.push_back({records.data(), records.data() + records.size()});
    } else {
      const auto& copy = sorted.emplace_back(sorted_largest_first(records));
      runs.push_back({copy.data(), copy.data() + copy.size()});
    }
    flows += count;
    const std::span<const std::uint8_t> shard_records =
        body.subspan(kHeaderBytes + records.size());
    shards += shard_records.size() / kShardRecordBytes;
    for (std::size_t off = 0; off < shard_records.size();
         off += kShardRecordBytes) {
      threshold = std::max<common::ByteCount>(
          threshold, load_be64(shard_records.data() + off + kShardThreshold));
    }
  }

  check_shard_count(shards);
  out.resize(kHeaderBytes + flows * kRecordBytes + shards * kShardRecordBytes);
  store_header(out.data(), kind, shards, interval, flows, threshold);
  std::uint8_t* at = out.data() + kHeaderBytes;
  if (runs.size() == 1) {
    const std::size_t bytes = flows * kRecordBytes;
    if (bytes != 0) std::memcpy(at, runs.front().at, bytes);
    at += bytes;
  } else {
    // k-way merge of the runs: the largest head next, the lowest member
    // index on a tie — exactly a stable sort of the members' records
    // concatenated in member order.
    for (std::size_t left = flows; left > 0; --left) {
      Run* best = nullptr;
      common::ByteCount best_estimate = 0;
      for (Run& run : runs) {
        if (run.at == run.end) continue;
        const common::ByteCount estimate = estimate_of(run.at);
        if (best == nullptr || estimate > best_estimate) {
          best = &run;
          best_estimate = estimate;
        }
      }
      std::memcpy(at, best->at, kRecordBytes);
      best->at += kRecordBytes;
      at += kRecordBytes;
    }
  }
  for (const SpliceMember& member : members) {
    const std::size_t count = load_be32(member.body.data() + 12);
    const std::span<const std::uint8_t> shard_records =
        member.body.subspan(kHeaderBytes + count * kRecordBytes);
    if (!shard_records.empty()) {
      std::memcpy(at, shard_records.data(), shard_records.size());
    }
    at += shard_records.size();
  }
}

std::size_t export_prefix(std::span<const std::uint8_t> data,
                          bool with_trailers,
                          common::IntervalIndex end_interval) {
  std::size_t kept = 0;
  while (data.size() - kept >= kHeaderBytes) {
    const std::uint8_t* header = data.data() + kept;
    if (load_be32(header) != kMagic ||
        load_be32(header + 8) >= end_interval) {
      break;
    }
    std::size_t length = kHeaderBytes +
                         std::size_t{load_be32(header + 12)} * kRecordBytes +
                         std::size_t{header[7]} * kShardRecordBytes;
    if (with_trailers) {
      if (data.size() - kept < length + kTrailerLengthBytes) break;
      length += kTrailerLengthBytes + load_be32(header + length);
    }
    if (data.size() - kept < length) break;
    kept += length;
  }
  return kept;
}

namespace {

void check_frame_bound(std::span<const std::uint8_t> payload) {
  if (payload.size() > wal::kMaxPayloadBytes) {
    throw CodecError("reporting: payload too large to frame");
  }
}

}  // namespace

std::vector<std::uint8_t> frame_payload(
    std::span<const std::uint8_t> payload) {
  check_frame_bound(payload);
  std::vector<std::uint8_t> out;
  wal::append(out, kFrameMagic, payload);
  return out;
}

std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::span<const std::uint8_t> payload) {
  check_frame_bound(payload);
  return wal::header(kFrameMagic, payload);
}

std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> frame) {
  const wal::Verified verified = wal::verify(frame, kFrameMagic);
  if (verified.check != wal::Check::kRecord ||
      verified.size() != frame.size()) {
    throw CodecError(
        "reporting: frame fails its magic, length or CRC check");
  }
  return verified.payload;
}

}  // namespace nd::reporting
