// Binary export of per-interval flow reports to a management station.
//
// NetFlow's second scalability problem (Section 2) is collection
// overhead: "the amount of data generated by NetFlow can overwhelm the
// collection server or its network connection ... loss rates of up to
// 90%". Our algorithms' advantage iv (Section 5.2) is that reporting
// only heavy hitters shrinks this export by orders of magnitude.
//
// The codec below is a NetFlow-v5-inspired fixed-record format:
//
//   header (24 bytes): magic 'NDTM', version, flow-key kind, shard
//                      count, interval, record count, threshold
//   record (24 bytes): key fields (a, b, c, d, proto, flags) and the
//                      estimated byte count
//   shard record (56 bytes, version 3, one per shard after the flow
//                      records): threshold, next threshold, entries
//                      used, capacity, smoothed usage in micro-units,
//                      a reserved word that must be 0, packets, bytes
//   metrics trailer (version 3, optional, after the shard records):
//                      u32 length + that many bytes of one JSON-lines
//                      telemetry snapshot (telemetry/export.hpp). The
//                      codec treats it as an opaque string so the wire
//                      format stays decoupled from the telemetry
//                      schema; absent entirely when the router exports
//                      no metrics.
//
// Only version 3 decodes: the decoder rejects any other version, and
// an unknown flow-key kind, before it reads a record. Big-endian on the
// wire, with strict validation on decode.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/device.hpp"

namespace nd::reporting {

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMagic = 0x4E44544D;  // "NDTM"
inline constexpr std::uint16_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::size_t kRecordBytes = 24;
inline constexpr std::size_t kShardRecordBytes = 56;
/// The shard count travels in the header's former reserved byte.
inline constexpr std::size_t kMaxShards = 255;
/// u32 length prefix of the optional metrics trailer.
inline constexpr std::size_t kTrailerLengthBytes = 4;

/// Exact wire size of a report (what the collection link carries),
/// without a metrics trailer.
[[nodiscard]] std::size_t encoded_size(const core::Report& report);
/// Wire size including a metrics trailer of `metrics_json_bytes` bytes
/// (0 means no trailer section at all).
[[nodiscard]] std::size_t encoded_size(const core::Report& report,
                                       std::size_t metrics_json_bytes);

/// Serialize a report. All flows must share one key kind (devices only
/// ever see one definition); throws CodecError on a mixed report. A
/// non-empty `metrics_json` — one telemetry snapshot JSON line — is
/// appended as the optional v3 trailer.
[[nodiscard]] std::vector<std::uint8_t> encode(
    const core::Report& report, packet::FlowKeyKind kind,
    std::string_view metrics_json = {});

/// encode() into a caller-owned scratch buffer, replacing its contents
/// (a throw leaves them unspecified). Senders
/// that frame every interval reuse one buffer across calls, so the
/// steady state allocates nothing.
void encode_into(std::vector<std::uint8_t>& out, const core::Report& report,
                 packet::FlowKeyKind kind, std::string_view metrics_json = {});

/// Parse an encoded report; throws CodecError on bad magic, version,
/// truncation, or trailing bytes. Any metrics trailer is validated and
/// dropped — use decode_full to keep it.
[[nodiscard]] core::Report decode(std::span<const std::uint8_t> data);

/// decode() plus the header's flow-key kind (the one way to know it
/// for a report with no flows) and the metrics trailer (empty when the
/// payload carries none).
struct DecodedReport {
  core::Report report;
  packet::FlowKeyKind kind{packet::FlowKeyKind::kFiveTuple};
  std::string metrics_json;
};
[[nodiscard]] DecodedReport decode_full(std::span<const std::uint8_t> data);

/// Where an encoded report's sections lie. layout_of() reads them from
/// the header with every check decode_full makes (magic, version, kind,
/// sizes, the shard records' reserved words, the trailer length), but
/// reads no flow record and builds no key. The spans view the checked
/// bytes.
struct ReportLayout {
  packet::FlowKeyKind kind{packet::FlowKeyKind::kFiveTuple};
  common::IntervalIndex interval{0};
  common::ByteCount threshold{0};
  /// Header, flow records and shard records: the report without its
  /// metrics trailer.
  std::span<const std::uint8_t> body;
  /// kRecordBytes per flow.
  std::span<const std::uint8_t> flow_records;
  /// kShardRecordBytes per shard.
  std::span<const std::uint8_t> shard_records;
  /// The metrics trailer (empty when the report carries none).
  std::string_view metrics_json;

  [[nodiscard]] std::size_t flows() const {
    return flow_records.size() / kRecordBytes;
  }
  [[nodiscard]] std::size_t shards() const {
    return shard_records.size() / kShardRecordBytes;
  }
  /// Sum of the shard records' entries-used fields: the entries_used
  /// core::merge_member_reports gives a merge of these shards.
  [[nodiscard]] std::uint64_t entries_used() const;
};
[[nodiscard]] ReportLayout layout_of(std::span<const std::uint8_t> data);

/// Throws CodecError unless every flow record of `layout` is canonical:
/// exactly the bytes encode() writes for the key it decodes to. That is
/// a reserved u16 of 0, an exact byte of 0 or 1, and the fields the
/// kind leaves unused as its FlowKey factory stores them: `a` 0 for a
/// destination IP; `d` 0 and protocol TCP (6) for every kind but the
/// 5-tuple; `c` 0 for a destination IP or AS pair and at most 255 (the
/// prefix length) for a network pair. Returns whether the records are
/// largest-first (estimates never increase), as devices ship them.
[[nodiscard]] bool check_flow_records(const ReportLayout& layout);

/// One member of a splice(): the body (ReportLayout::body) of a report
/// whose flow records passed check_flow_records, and what that check
/// returned.
struct SpliceMember {
  std::span<const std::uint8_t> body;
  bool largest_first{true};
};

/// Writes into `out` (replacing its contents) the fleet merge of
/// `members`, encoded under `kind`: the very bytes that
///   core::Report merged = core::merge_member_reports(interval, decoded);
///   core::sort_by_size(merged);
///   encode(merged, kind);
/// write for the members decoded in order, spliced from their records
/// without decoding one. The header carries the sums and the maximum
/// shard threshold merge_member_reports computes; the flow records are
/// a k-way merge by estimate, ties in member order (one largest-first
/// member is one copy); each member's shard records follow in member
/// order. Throws CodecError above kMaxShards shard records, as encode().
void splice(std::vector<std::uint8_t>& out, common::IntervalIndex interval,
            packet::FlowKeyKind kind, std::span<const SpliceMember> members);

/// The leading bytes of an export file (encoded reports back to back)
/// that hold whole reports of intervals below `end_interval`: the cut
/// that keeps them and drops the rest, a torn last report included.
/// The headers do not say whether a report carries a metrics trailer;
/// `with_trailers` does (a writer attaches one to every report or to
/// none). Stops at the first header that is not a report's.
[[nodiscard]] std::size_t export_prefix(std::span<const std::uint8_t> data,
                                        bool with_trailers,
                                        common::IntervalIndex end_interval);

// CRC32 framing for flaky collection channels. A frame is the wal
// record (wal.hpp) under the magic 'NDFR':
//   magic 'NDFR' (u32) | payload length (u32) | CRC32 of payload (u32)
// followed by the payload bytes. unframe() verifies all three before
// returning a view of the payload, so a bit-corrupted or truncated
// report is rejected (CodecError) instead of decoding into plausible
// garbage — CRC32 detects every single-byte error, which the
// decode-hardening fuzz tables rely on. The collector's stream parser
// (net/frame_stream.hpp) applies the same check and resyncs past a bad
// frame; nothing re-requests it, so over TCP a corrupted frame is a
// lost interval that shows only in the collector's resync counters.
// A payload above wal::kMaxPayloadBytes (64 MiB) is never framed: the
// framing calls throw CodecError.
inline constexpr std::uint32_t kFrameMagic = 0x4E444652;  // "NDFR"
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Header and payload as one contiguous frame: the form the spool
/// stores and replays.
[[nodiscard]] std::vector<std::uint8_t> frame_payload(
    std::span<const std::uint8_t> payload);
/// The 12-byte frame header alone (magic | length | CRC32 of payload).
/// Pair with a scatter-gather write (FrameTransport::send_frame_parts)
/// to put a frame on the wire without ever copying the payload behind
/// a header.
[[nodiscard]] std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::span<const std::uint8_t> payload);
/// Verify magic/length/CRC and return the payload view (into `frame`).
[[nodiscard]] std::span<const std::uint8_t> unframe(
    std::span<const std::uint8_t> frame);

}  // namespace nd::reporting
