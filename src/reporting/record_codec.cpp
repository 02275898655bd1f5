#include "reporting/record_codec.hpp"

#include "common/byte_order.hpp"
#include "reporting/wal.hpp"

namespace nd::reporting {

using common::append_be16;
using common::append_be32;
using common::append_be64;
using common::load_be16;
using common::load_be32;
using common::load_be64;

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

/// Append the encoded report to `out` (shared by the allocating and
/// scratch-reusing entry points).
void encode_append(std::vector<std::uint8_t>& out, const core::Report& report,
                   packet::FlowKeyKind kind, std::string_view metrics_json) {
  if (report.shards.size() > kMaxShards) {
    throw CodecError("reporting: too many shards for the wire format");
  }
  if (metrics_json.size() > 0xFFFFFFFFULL) {
    throw CodecError("reporting: metrics trailer too large");
  }
  out.reserve(out.size() + encoded_size(report, metrics_json.size()));
  append_be32(out, kMagic);
  append_be16(out, kVersion);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(static_cast<std::uint8_t>(report.shards.size()));
  append_be32(out, report.interval);
  append_be32(out, static_cast<std::uint32_t>(report.flows.size()));
  append_be64(out, report.threshold);

  for (const auto& flow : report.flows) {
    if (flow.key.kind() != kind) {
      throw CodecError("reporting: mixed flow-key kinds in one report");
    }
    append_be32(out, flow.key.kind() == packet::FlowKeyKind::kAsPair
                     ? flow.key.src_as()
                     : flow.key.src_ip());
    append_be32(out, flow.key.kind() == packet::FlowKeyKind::kAsPair
                     ? flow.key.dst_as()
                     : flow.key.dst_ip());
    append_be16(out, flow.key.src_port());
    append_be16(out, flow.key.dst_port());
    out.push_back(static_cast<std::uint8_t>(flow.key.protocol()));
    out.push_back(flow.exact ? 1 : 0);
    append_be16(out, 0);  // reserved / alignment
    append_be64(out, flow.estimated_bytes);
  }
  for (const auto& shard : report.shards) {
    append_be64(out, shard.threshold);
    append_be64(out, shard.next_threshold);
    append_be64(out, shard.entries_used);
    append_be64(out, shard.capacity);
    // Smoothed usage in micro-units; entries never exceed capacity, so
    // 1e6 bounds the value and u32 is ample.
    append_be32(out, static_cast<std::uint32_t>(shard.smoothed_usage * 1e6 +
                                            0.5));
    append_be32(out, 0);  // reserved; the decoder rejects nonzero
    append_be64(out, shard.packets);
    append_be64(out, shard.bytes);
  }
  if (!metrics_json.empty()) {
    append_be32(out, static_cast<std::uint32_t>(metrics_json.size()));
    out.insert(out.end(), metrics_json.begin(), metrics_json.end());
  }
}

}  // namespace

std::vector<std::uint8_t> encode(const core::Report& report,
                                 packet::FlowKeyKind kind,
                                 std::string_view metrics_json) {
  std::vector<std::uint8_t> out;
  encode_append(out, report, kind, metrics_json);
  return out;
}

void encode_into(std::vector<std::uint8_t>& out, const core::Report& report,
                 packet::FlowKeyKind kind, std::string_view metrics_json) {
  out.clear();
  encode_append(out, report, kind, metrics_json);
}

DecodedReport decode_full(std::span<const std::uint8_t> data) {
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
  const auto kind = static_cast<packet::FlowKeyKind>(data[6]);
  if (kind > packet::FlowKeyKind::kNetworkPair) {
    throw CodecError("reporting: unknown flow-key kind");
  }
  const std::size_t shard_count = data[7];
  DecodedReport decoded;
  decoded.kind = kind;
  core::Report& report = decoded.report;
  report.interval = load_be32(data.data() + 8);
  const std::uint32_t count = load_be32(data.data() + 12);
  report.threshold = load_be64(data.data() + 16);

  const std::size_t body_bytes = kHeaderBytes + count * kRecordBytes +
                                 shard_count * kShardRecordBytes;
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
    decoded.metrics_json.assign(
        reinterpret_cast<const char*>(
            data.data() + body_bytes + kTrailerLengthBytes),
        trailer_len);
  }
  report.flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t off = kHeaderBytes + i * kRecordBytes;
    const std::uint32_t a = load_be32(data.data() + off);
    const std::uint32_t b = load_be32(data.data() + off + 4);
    const std::uint16_t c = load_be16(data.data() + off + 8);
    const std::uint16_t d = load_be16(data.data() + off + 10);
    const auto proto = static_cast<packet::IpProtocol>(data[off + 12]);
    const bool exact = data[off + 13] != 0;
    const common::ByteCount bytes = load_be64(data.data() + off + 16);

    packet::FlowKey key;
    switch (kind) {
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
  report.shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t off =
        kHeaderBytes + count * kRecordBytes + s * kShardRecordBytes;
    core::ShardStatus status;
    status.threshold = load_be64(data.data() + off);
    status.next_threshold = load_be64(data.data() + off + 8);
    status.entries_used = load_be64(data.data() + off + 16);
    status.capacity = load_be64(data.data() + off + 24);
    status.smoothed_usage =
        static_cast<double>(load_be32(data.data() + off + 32)) / 1e6;
    if (load_be32(data.data() + off + 36) != 0) {
      throw CodecError("reporting: nonzero reserved word in shard record");
    }
    status.packets = load_be64(data.data() + off + 40);
    status.bytes = load_be64(data.data() + off + 48);
    report.shards.push_back(status);
  }
  return decoded;
}

core::Report decode(std::span<const std::uint8_t> data) {
  return decode_full(data).report;
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
