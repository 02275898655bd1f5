// Decode-hardening fuzz tables for the two wire decoders.
//
// Table-driven rather than random: every strict prefix and every
// single-byte flip of known-good payloads is tried at every offset, so
// the assertions are exhaustive over the interesting input space and
// the suite stays deterministic. The contract under test: malformed
// input raises CodecError/PcapError — never UB, over-reads, or
// unbounded allocation (this suite is part of the sanitizer builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "packet/flow_key.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "robustness/fault.hpp"

namespace nd {
namespace {

using reporting::CodecError;

core::Report sample_report(std::size_t flows, std::size_t shards) {
  core::Report report;
  report.interval = 4;
  report.threshold = 77'000;
  report.entries_used = flows;
  for (std::size_t i = 0; i < flows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FE,
        static_cast<std::uint16_t>(4000 + i), 443,
        packet::IpProtocol::kTcp);
    flow.estimated_bytes = 90'000 + i;
    flow.exact = (i % 2) == 0;
    report.flows.push_back(flow);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    core::ShardStatus status;
    status.threshold = 70'000 + s;
    status.next_threshold = 68'000 + s;
    status.smoothed_usage = 0.5;
    status.entries_used = 10 + s;
    status.capacity = 128;
    status.packets = 100 + s;
    status.bytes = 1'000 + s;
    report.shards.push_back(status);
  }
  return report;
}

/// Decode every strict prefix; all must throw except lengths listed in
/// `valid_prefixes` (a v3 payload without its optional trailer is
/// itself a complete payload).
void expect_all_prefixes_rejected(
    const std::vector<std::uint8_t>& payload,
    const std::vector<std::size_t>& valid_prefixes = {}) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::span<const std::uint8_t> prefix(payload.data(), len);
    const bool expected_valid =
        std::find(valid_prefixes.begin(), valid_prefixes.end(), len) !=
        valid_prefixes.end();
    if (expected_valid) {
      EXPECT_NO_THROW((void)reporting::decode_full(prefix))
          << "prefix " << len;
    } else {
      EXPECT_THROW((void)reporting::decode_full(prefix), CodecError)
          << "prefix of " << len << " bytes accepted";
    }
  }
}

/// Flip one byte at every offset; decode must throw CodecError or
/// return normally — anything else (crash, sanitizer report) fails.
void expect_all_flips_contained(const std::vector<std::uint8_t>& payload) {
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const std::uint8_t pattern : {0x01, 0x80, 0xFF}) {
      auto corrupt = payload;
      corrupt[i] ^= pattern;
      try {
        (void)reporting::decode_full(corrupt);
      } catch (const CodecError&) {
        // rejected: fine. Decoding to a wrong-but-well-formed report is
        // also fine — unframed payloads carry no integrity check; that
        // is what the CRC framing below is for.
      }
    }
  }
}

TEST(CodecHardening, V3TruncationTableNoFlowsNoShards) {
  const auto payload =
      reporting::encode(sample_report(0, 0), packet::FlowKeyKind::kFiveTuple);
  expect_all_prefixes_rejected(payload);
}

TEST(CodecHardening, V3TruncationTableFlowsAndShards) {
  const auto payload =
      reporting::encode(sample_report(3, 2), packet::FlowKeyKind::kFiveTuple);
  expect_all_prefixes_rejected(payload);
}

TEST(CodecHardening, V3TruncationTableWithMetricsTrailer) {
  const core::Report report = sample_report(2, 2);
  const std::string metrics = "{\"interval\":4,\"metrics\":[]}";
  const auto payload =
      reporting::encode(report, packet::FlowKeyKind::kFiveTuple, metrics);
  // The one decodable strict prefix: the complete payload minus the
  // whole optional trailer section.
  expect_all_prefixes_rejected(payload,
                               {reporting::encoded_size(report)});
}

TEST(CodecHardening, ByteFlipsNeverEscapeTheDecoder) {
  expect_all_flips_contained(
      reporting::encode(sample_report(3, 2), packet::FlowKeyKind::kFiveTuple));
  expect_all_flips_contained(reporting::encode(sample_report(2, 1),
                                    packet::FlowKeyKind::kFiveTuple,
                                    "{\"interval\":4,\"metrics\":[]}"));
}

TEST(CodecHardening, HugeRecordCountIsRejectedNotAllocated) {
  auto payload =
      reporting::encode(sample_report(1, 0), packet::FlowKeyKind::kFiveTuple);
  // Patch the record count (header bytes 12..15, big-endian) to the
  // maximum; the decoder must reject on the size check instead of
  // trusting the count and allocating gigabytes.
  payload[12] = payload[13] = payload[14] = payload[15] = 0xFF;
  EXPECT_THROW((void)reporting::decode(payload), CodecError);
}

TEST(CodecHardening, DegradedBitRoundTripsOnTheWire) {
  core::Report report = sample_report(1, 3);
  report.shards[1].degraded = true;
  const auto decoded = reporting::decode(
      reporting::encode(report, packet::FlowKeyKind::kFiveTuple));
  ASSERT_EQ(decoded.shards.size(), 3u);
  EXPECT_FALSE(decoded.shards[0].degraded);
  EXPECT_TRUE(decoded.shards[1].degraded);
  EXPECT_FALSE(decoded.shards[2].degraded);
}

TEST(FrameHardening, EveryTruncationIsRejected) {
  const auto frame = reporting::frame_payload(reporting::encode(
      sample_report(3, 2), packet::FlowKeyKind::kFiveTuple));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    EXPECT_THROW((void)reporting::decode_full(reporting::unframe(prefix)),
                 CodecError)
        << "frame prefix of " << len << " bytes accepted";
  }
}

TEST(FrameHardening, EverySingleByteFlipIsRejected) {
  // The framed contract is strictly stronger than the raw payload's:
  // CRC32 detects every single-byte error, so any flip anywhere —
  // header or payload — must throw, never decode to a wrong report.
  const auto frame = reporting::frame_payload(
      reporting::encode(sample_report(3, 2), packet::FlowKeyKind::kFiveTuple,
                        "{\"interval\":4,\"metrics\":[]}"));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const std::uint8_t pattern : {0x01, 0x80, 0xFF}) {
      auto corrupt = frame;
      corrupt[i] ^= pattern;
      EXPECT_THROW(
          (void)reporting::decode_full(reporting::unframe(corrupt)),
          CodecError)
          << "flip of byte " << i << " accepted";
    }
  }
}

TEST(FrameHardening, FrameRoundTripsPayloadAndMetrics) {
  const core::Report report = sample_report(2, 1);
  const std::string metrics = "{\"interval\":4,\"metrics\":[]}";
  const auto frame = reporting::frame_payload(
      reporting::encode(report, packet::FlowKeyKind::kFiveTuple, metrics));
  EXPECT_EQ(frame.size(), reporting::kFrameHeaderBytes +
                              reporting::encoded_size(
                                  report, metrics.size()));
  const auto decoded = reporting::decode_full(reporting::unframe(frame));
  EXPECT_EQ(decoded.report.flows.size(), 2u);
  EXPECT_EQ(decoded.metrics_json, metrics);
}

// ---------------------------------------------------------------------
// pcap reader hardening.

std::string valid_pcap(std::uint32_t packets, std::uint32_t snaplen) {
  std::ostringstream out(std::ios::binary);
  pcap::PcapWriter writer(out, snaplen);
  for (std::uint32_t i = 0; i < packets; ++i) {
    packet::PacketRecord record;
    record.timestamp_ns = 1'000'000ULL * (i + 1);
    record.src_ip = 0x0A000001 + i;
    record.dst_ip = 0x0A0000FE;
    record.src_port = static_cast<std::uint16_t>(5000 + i);
    record.dst_port = 80;
    record.protocol = packet::IpProtocol::kTcp;
    record.size_bytes = 200;
    writer.write(record);
  }
  return out.str();
}

std::vector<pcap::PcapPacket> read_all(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  pcap::PcapReader reader(in);
  std::vector<pcap::PcapPacket> packets;
  while (auto packet = reader.next()) {
    packets.push_back(std::move(*packet));
  }
  return packets;
}

TEST(PcapHardening, EmptyFileRejected) {
  EXPECT_THROW((void)read_all(std::string{}), pcap::PcapError);
}

TEST(PcapHardening, ZeroSnaplenRejectedAtOpen) {
  EXPECT_THROW((void)read_all(valid_pcap(1, 0)), pcap::PcapError);
}

TEST(PcapHardening, AbsurdSnaplenRejectedAtOpen) {
  // An attacker-controlled snaplen must not authorize huge per-packet
  // allocations (the old code also overflowed `snaplen + 4096`).
  EXPECT_THROW((void)read_all(valid_pcap(1, 0xFFFFFF00U)),
               pcap::PcapError);
  EXPECT_THROW((void)read_all(valid_pcap(1, pcap::kMaxSnapLen + 1)),
               pcap::PcapError);
}

TEST(PcapHardening, CaptureLengthAboveSnaplenRejected) {
  std::string bytes = valid_pcap(1, 512);
  // incl_len is the third u32 of the packet header, little-endian here
  // (the writer emits native magic): global header is 24 bytes, then
  // ts_sec, ts_usec, incl_len at offset 24 + 8.
  const std::size_t incl_len_at = 24 + 8;
  bytes[incl_len_at] = 0x01;
  bytes[incl_len_at + 1] = 0x02;  // 0x0201 = 513 > snaplen 512
  EXPECT_THROW((void)read_all(bytes), pcap::PcapError);
}

TEST(PcapHardening, TruncationAnywhereIsDetected) {
  const std::string bytes = valid_pcap(2, 512);
  const auto full = read_all(bytes);
  ASSERT_EQ(full.size(), 2u);
  // Every strict prefix either throws (mid-structure cut) or yields
  // fewer packets (cut exactly at a packet boundary) — never garbage.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      const auto partial = read_all(bytes.substr(0, len));
      EXPECT_LT(partial.size(), 2u) << "prefix " << len;
      for (const auto& packet : partial) {
        EXPECT_EQ(packet.data.size(), full[0].data.size());
      }
    } catch (const pcap::PcapError&) {
      // detected: fine
    }
  }
}

TEST(PcapHardening, StrayBytesAfterLastRecordRejected) {
  // Zero leftover bytes is a clean end of file; any partial record
  // header after the last record is truncation, not EOF.
  const std::string bytes = valid_pcap(2, 512);
  ASSERT_EQ(read_all(bytes).size(), 2u);
  for (const std::size_t stray : {1u, 3u, 15u}) {
    const std::string tail = bytes + std::string(stray, '\x01');
    EXPECT_THROW((void)read_all(tail), pcap::PcapError) << stray;
    std::istringstream in(tail, std::ios::binary);
    pcap::PcapReader reader(in);
    EXPECT_TRUE(reader.next_record().has_value());
    EXPECT_TRUE(reader.next_record().has_value());
    EXPECT_THROW((void)reader.next_record(), pcap::PcapError) << stray;
  }
}

TEST(PcapHardening, TruncateFaultKeepsTheStreamAligned) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kTruncate;
  spec.schedule = {0};
  robustness::FaultInjector faults(
      robustness::FaultPlan(3).inject("pcap.truncate", spec));

  const std::string bytes = valid_pcap(2, 512);
  std::istringstream in(bytes, std::ios::binary);
  pcap::PcapReader reader(in);
  reader.attach_fault_injector(&faults);
  const auto first = reader.next();
  const auto second = reader.next();
  ASSERT_TRUE(first && second);
  // First packet shortened; the reader consumed the full capture, so
  // the second packet parses intact.
  EXPECT_LT(first->data.size(), second->data.size());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(PcapHardening, CorruptFaultFlipsExactlyOneCapturedByte) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kCorrupt;
  spec.schedule = {0};
  robustness::FaultInjector faults(
      robustness::FaultPlan(3).inject("pcap.corrupt", spec));

  const std::string bytes = valid_pcap(1, 512);
  const auto clean = read_all(bytes);
  std::istringstream in(bytes, std::ios::binary);
  pcap::PcapReader reader(in);
  reader.attach_fault_injector(&faults);
  const auto corrupted = reader.next();
  ASSERT_TRUE(corrupted.has_value());
  ASSERT_EQ(corrupted->data.size(), clean[0].data.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < corrupted->data.size(); ++i) {
    if (corrupted->data[i] != clean[0].data[i]) ++changed;
  }
  EXPECT_EQ(changed, 1u);
}

}  // namespace
}  // namespace nd
