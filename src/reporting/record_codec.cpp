#include "reporting/record_codec.hpp"

#include "common/crc32.hpp"

namespace nd::reporting {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t off) {
  return static_cast<std::uint16_t>((d[off] << 8) | d[off + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t off) {
  return (static_cast<std::uint32_t>(get_u16(d, off)) << 16) |
         get_u16(d, off + 2);
}

std::uint64_t get_u64(std::span<const std::uint8_t> d, std::size_t off) {
  return (static_cast<std::uint64_t>(get_u32(d, off)) << 32) |
         get_u32(d, off + 4);
}

}  // namespace

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
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(static_cast<std::uint8_t>(report.shards.size()));
  put_u32(out, report.interval);
  put_u32(out, static_cast<std::uint32_t>(report.flows.size()));
  put_u64(out, report.threshold);

  for (const auto& flow : report.flows) {
    if (flow.key.kind() != kind) {
      throw CodecError("reporting: mixed flow-key kinds in one report");
    }
    put_u32(out, flow.key.kind() == packet::FlowKeyKind::kAsPair
                     ? flow.key.src_as()
                     : flow.key.src_ip());
    put_u32(out, flow.key.kind() == packet::FlowKeyKind::kAsPair
                     ? flow.key.dst_as()
                     : flow.key.dst_ip());
    put_u16(out, flow.key.src_port());
    put_u16(out, flow.key.dst_port());
    out.push_back(static_cast<std::uint8_t>(flow.key.protocol()));
    out.push_back(flow.exact ? 1 : 0);
    put_u16(out, 0);  // reserved / alignment
    put_u64(out, flow.estimated_bytes);
  }
  for (const auto& shard : report.shards) {
    put_u64(out, shard.threshold);
    put_u64(out, shard.next_threshold);
    put_u64(out, shard.entries_used);
    put_u64(out, shard.capacity);
    // Smoothed usage in micro-units; entries never exceed capacity, so
    // 1e6 bounds the value and u32 is ample.
    put_u32(out, static_cast<std::uint32_t>(shard.smoothed_usage * 1e6 +
                                            0.5));
    put_u32(out, 0);  // reserved; the decoder rejects nonzero
    put_u64(out, shard.packets);
    put_u64(out, shard.bytes);
  }
  if (!metrics_json.empty()) {
    put_u32(out, static_cast<std::uint32_t>(metrics_json.size()));
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
  if (get_u32(data, 0) != kMagic) {
    throw CodecError("reporting: bad magic");
  }
  if (get_u16(data, 4) != kVersion) {
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
  core::Report& report = decoded.report;
  report.interval = get_u32(data, 8);
  const std::uint32_t count = get_u32(data, 12);
  report.threshold = get_u64(data, 16);

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
    const std::size_t trailer_len = get_u32(data, body_bytes);
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
    const std::uint32_t a = get_u32(data, off);
    const std::uint32_t b = get_u32(data, off + 4);
    const std::uint16_t c = get_u16(data, off + 8);
    const std::uint16_t d = get_u16(data, off + 10);
    const auto proto = static_cast<packet::IpProtocol>(data[off + 12]);
    const bool exact = data[off + 13] != 0;
    const common::ByteCount bytes = get_u64(data, off + 16);

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
    status.threshold = get_u64(data, off);
    status.next_threshold = get_u64(data, off + 8);
    status.entries_used = get_u64(data, off + 16);
    status.capacity = get_u64(data, off + 24);
    status.smoothed_usage = static_cast<double>(get_u32(data, off + 32)) / 1e6;
    if (get_u32(data, off + 36) != 0) {
      throw CodecError("reporting: nonzero reserved word in shard record");
    }
    status.packets = get_u64(data, off + 40);
    status.bytes = get_u64(data, off + 48);
    report.shards.push_back(status);
  }
  return decoded;
}

core::Report decode(std::span<const std::uint8_t> data) {
  return decode_full(data).report;
}

std::vector<std::uint8_t> frame_payload(
    std::span<const std::uint8_t> payload) {
  if (payload.size() > 0xFFFFFFFFULL) {
    throw CodecError("reporting: payload too large to frame");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, common::crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::span<const std::uint8_t> payload) {
  if (payload.size() > 0xFFFFFFFFULL) {
    throw CodecError("reporting: payload too large to frame");
  }
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = common::crc32(payload);
  for (std::size_t i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(kFrameMagic >> (24 - 8 * i));
    header[4 + i] = static_cast<std::uint8_t>(length >> (24 - 8 * i));
    header[8 + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
  return header;
}

std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeaderBytes) {
    throw CodecError("reporting: truncated frame header");
  }
  if (get_u32(frame, 0) != kFrameMagic) {
    throw CodecError("reporting: bad frame magic");
  }
  const std::size_t length = get_u32(frame, 4);
  if (frame.size() != kFrameHeaderBytes + length) {
    throw CodecError("reporting: frame length mismatch");
  }
  const std::span<const std::uint8_t> payload =
      frame.subspan(kFrameHeaderBytes);
  if (common::crc32(payload) != get_u32(frame, 8)) {
    throw CodecError("reporting: frame CRC mismatch (corrupt payload)");
  }
  return payload;
}

}  // namespace nd::reporting
