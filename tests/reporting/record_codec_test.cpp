#include "reporting/record_codec.hpp"

#include <gtest/gtest.h>

namespace nd::reporting {
namespace {

core::Report sample_report() {
  core::Report report;
  report.interval = 7;
  report.threshold = 1'000'000;
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::five_tuple(0x0A000001, 0x0A000002, 80, 443,
                                  packet::IpProtocol::kTcp),
      123'456'789ULL, true});
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::five_tuple(0x0A000003, 0x0A000004, 53, 9999,
                                  packet::IpProtocol::kUdp),
      42ULL, false});
  return report;
}

TEST(RecordCodec, EncodedSizeFormula) {
  const auto report = sample_report();
  EXPECT_EQ(encoded_size(report), kHeaderBytes + 2 * kRecordBytes);
  EXPECT_EQ(encode(report, packet::FlowKeyKind::kFiveTuple).size(),
            encoded_size(report));
}

TEST(RecordCodec, ExportPrefixKeepsWholeReportsBelowTheInterval) {
  std::vector<std::uint8_t> with_trailers;
  std::vector<std::uint8_t> bare;
  std::vector<std::size_t> ends_with_trailers;
  std::vector<std::size_t> ends_bare;
  for (common::IntervalIndex i = 0; i < 3; ++i) {
    core::Report report = sample_report();
    report.interval = i;
    report.flows.resize(i);  // interval 0 has no flows
    const auto trailed =
        encode(report, packet::FlowKeyKind::kFiveTuple, "{\"i\":1}");
    with_trailers.insert(with_trailers.end(), trailed.begin(), trailed.end());
    ends_with_trailers.push_back(with_trailers.size());
    const auto plain = encode(report, packet::FlowKeyKind::kFiveTuple);
    bare.insert(bare.end(), plain.begin(), plain.end());
    ends_bare.push_back(bare.size());
  }
  EXPECT_EQ(export_prefix(with_trailers, true, 0), 0U);
  EXPECT_EQ(export_prefix(with_trailers, true, 2), ends_with_trailers[1]);
  EXPECT_EQ(export_prefix(with_trailers, true, 9), ends_with_trailers[2]);
  EXPECT_EQ(export_prefix(bare, false, 2), ends_bare[1]);
  EXPECT_EQ(export_prefix(bare, false, 9), ends_bare[2]);
  // A torn last report is cut off, with or without trailers.
  with_trailers.resize(ends_with_trailers[2] - 1);
  EXPECT_EQ(export_prefix(with_trailers, true, 9), ends_with_trailers[1]);
  bare.resize(ends_bare[1] + 5);
  EXPECT_EQ(export_prefix(bare, false, 9), ends_bare[1]);
}

TEST(RecordCodec, RoundTripFiveTuple) {
  const auto report = sample_report();
  const auto decoded =
      decode(encode(report, packet::FlowKeyKind::kFiveTuple));
  EXPECT_EQ(decoded.interval, report.interval);
  EXPECT_EQ(decoded.threshold, report.threshold);
  ASSERT_EQ(decoded.flows.size(), report.flows.size());
  for (std::size_t i = 0; i < report.flows.size(); ++i) {
    EXPECT_EQ(decoded.flows[i].key, report.flows[i].key) << i;
    EXPECT_EQ(decoded.flows[i].estimated_bytes,
              report.flows[i].estimated_bytes);
    EXPECT_EQ(decoded.flows[i].exact, report.flows[i].exact);
  }
}

TEST(RecordCodec, RoundTripDestinationIp) {
  core::Report report;
  report.interval = 1;
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::destination_ip(0xC0A80101), 999ULL, false});
  const auto decoded =
      decode(encode(report, packet::FlowKeyKind::kDestinationIp));
  EXPECT_EQ(decoded.flows[0].key, report.flows[0].key);
}

TEST(RecordCodec, RoundTripAsPair) {
  core::Report report;
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::as_pair(64512, 1701), 5'000'000ULL, true});
  const auto decoded = decode(encode(report, packet::FlowKeyKind::kAsPair));
  EXPECT_EQ(decoded.flows[0].key.src_as(), 64512u);
  EXPECT_EQ(decoded.flows[0].key.dst_as(), 1701u);
}

TEST(RecordCodec, RoundTripNetworkPair) {
  core::Report report;
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::network_pair(0x0A010200, 0x0A020300, 24),
      777'000ULL, false});
  const auto decoded =
      decode(encode(report, packet::FlowKeyKind::kNetworkPair));
  EXPECT_EQ(decoded.flows[0].key, report.flows[0].key);
  EXPECT_EQ(decoded.flows[0].key.prefix_len(), 24);
}

TEST(RecordCodec, EmptyReportRoundTrips) {
  core::Report report;
  report.interval = 3;
  const auto decoded =
      decode(encode(report, packet::FlowKeyKind::kFiveTuple));
  EXPECT_EQ(decoded.interval, 3u);
  EXPECT_TRUE(decoded.flows.empty());
}

TEST(RecordCodec, MixedKindsRejected) {
  core::Report report;
  report.flows.push_back(core::ReportedFlow{
      packet::FlowKey::destination_ip(1), 1ULL, false});
  EXPECT_THROW((void)encode(report, packet::FlowKeyKind::kFiveTuple),
               CodecError);
}

TEST(RecordCodec, BadMagicRejected) {
  auto data = encode(sample_report(), packet::FlowKeyKind::kFiveTuple);
  data[0] ^= 0xFF;
  EXPECT_THROW((void)decode(data), CodecError);
}

TEST(RecordCodec, BadVersionRejected) {
  // Only v3 decodes: the retired v1/v2 layouts are rejected like any
  // unknown version, with or without shards or a trailer.
  auto report = sample_report();
  report.shards.push_back(core::ShardStatus{60'000, 54'000, 0.9, 115, 128});
  for (const auto& data :
       {encode(sample_report(), packet::FlowKeyKind::kFiveTuple),
        encode(report, packet::FlowKeyKind::kFiveTuple, "{\"x\":1}")}) {
    for (const int version : {0, 1, 2, 4, 99}) {
      auto patched = data;
      patched[5] = static_cast<std::uint8_t>(version);
      EXPECT_THROW((void)decode_full(patched), CodecError)
          << "version " << version;
    }
  }
}

TEST(RecordCodec, UnknownKindRejectedEvenWithoutFlows) {
  // The kind byte is validated in the header, so a zero-flow report
  // cannot smuggle an unknown kind into the collector's merge.
  core::Report empty;
  empty.interval = 4;
  auto data = encode(empty, packet::FlowKeyKind::kFiveTuple);
  ASSERT_NO_THROW((void)decode(data));
  data[6] = 0x7F;
  EXPECT_THROW((void)decode(data), CodecError);
  // And with flows, as before.
  auto with_flows = encode(sample_report(), packet::FlowKeyKind::kFiveTuple);
  with_flows[6] = 0x7F;
  EXPECT_THROW((void)decode(with_flows), CodecError);
}

TEST(RecordCodec, TruncationRejected) {
  auto data = encode(sample_report(), packet::FlowKeyKind::kFiveTuple);
  data.pop_back();
  EXPECT_THROW((void)decode(data), CodecError);
  EXPECT_THROW((void)decode(std::span<const std::uint8_t>(data.data(), 10)),
               CodecError);
}

TEST(RecordCodec, TrailingBytesRejected) {
  auto data = encode(sample_report(), packet::FlowKeyKind::kFiveTuple);
  data.push_back(0);
  EXPECT_THROW((void)decode(data), CodecError);
}

TEST(RecordCodec, CountMismatchRejected) {
  auto data = encode(sample_report(), packet::FlowKeyKind::kFiveTuple);
  data[15] = 5;  // claim 5 records, carry 2
  EXPECT_THROW((void)decode(data), CodecError);
}

TEST(RecordCodec, ShardTrailerRoundTrips) {
  auto report = sample_report();
  report.shards.push_back(
      core::ShardStatus{60'000, 54'000, 0.913, 115, 128});
  report.shards.push_back(
      core::ShardStatus{48'500, 48'500, 0.787, 100, 128});
  EXPECT_EQ(encoded_size(report),
            kHeaderBytes + 2 * kRecordBytes + 2 * kShardRecordBytes);

  const auto data = encode(report, packet::FlowKeyKind::kFiveTuple);
  ASSERT_EQ(data.size(), encoded_size(report));
  EXPECT_EQ(data[7], 2u);  // shard count in the former reserved byte

  const auto decoded = decode(data);
  ASSERT_EQ(decoded.shards.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(decoded.shards[s].threshold, report.shards[s].threshold) << s;
    EXPECT_EQ(decoded.shards[s].next_threshold,
              report.shards[s].next_threshold);
    EXPECT_EQ(decoded.shards[s].entries_used, report.shards[s].entries_used);
    EXPECT_EQ(decoded.shards[s].capacity, report.shards[s].capacity);
    // Usage travels in micro-units, so round-trips to 1e-6.
    EXPECT_NEAR(decoded.shards[s].smoothed_usage,
                report.shards[s].smoothed_usage, 1e-6);
  }
  EXPECT_EQ(core::effective_threshold(decoded), 1'000'000u);
}

TEST(RecordCodec, ShardTrailerTruncationRejected) {
  auto report = sample_report();
  report.shards.push_back(core::ShardStatus{60'000, 54'000, 0.9, 115, 128});
  auto data = encode(report, packet::FlowKeyKind::kFiveTuple);
  data.pop_back();
  EXPECT_THROW((void)decode(data), CodecError);
}

TEST(RecordCodec, TooManyShardsRejected) {
  core::Report report;
  report.shards.resize(kMaxShards + 1);
  EXPECT_THROW((void)encode(report, packet::FlowKeyKind::kFiveTuple),
               CodecError);
}

TEST(RecordCodec, ShardTrafficTalliesRoundTrip) {
  // v3 widened the shard record by the per-interval packet/byte tallies.
  auto report = sample_report();
  core::ShardStatus status{60'000, 54'000, 0.913, 115, 128};
  status.packets = 123'456;
  status.bytes = 789'012'345;
  report.shards.push_back(status);

  const auto decoded = decode(encode(report, packet::FlowKeyKind::kFiveTuple));
  ASSERT_EQ(decoded.shards.size(), 1u);
  EXPECT_EQ(decoded.shards[0].packets, 123'456u);
  EXPECT_EQ(decoded.shards[0].bytes, 789'012'345u);
}

TEST(RecordCodec, MetricsTrailerRoundTrips) {
  const auto report = sample_report();
  const std::string metrics =
      "{\"interval\":7,\"metrics\":[{\"name\":\"nd_device_packets_total\","
      "\"kind\":\"counter\",\"value\":9}]}";
  EXPECT_EQ(encoded_size(report, metrics.size()),
            encoded_size(report) + kTrailerLengthBytes + metrics.size());

  const auto data = encode(report, packet::FlowKeyKind::kFiveTuple, metrics);
  ASSERT_EQ(data.size(), encoded_size(report, metrics.size()));
  const auto decoded = decode_full(data);
  EXPECT_EQ(decoded.metrics_json, metrics);
  EXPECT_EQ(decoded.report.flows.size(), report.flows.size());

  // The report-only decoder skips the trailer without complaint.
  EXPECT_EQ(decode(data).flows.size(), report.flows.size());
}

TEST(RecordCodec, EmptyTrailerEncodesAsV2Layout) {
  const auto report = sample_report();
  EXPECT_EQ(encoded_size(report, 0), encoded_size(report));
  const auto data = encode(report, packet::FlowKeyKind::kFiveTuple, "");
  EXPECT_EQ(data.size(), encoded_size(report));
  EXPECT_TRUE(decode_full(data).metrics_json.empty());
}

TEST(RecordCodec, TruncatedTrailerRejected) {
  const auto report = sample_report();
  auto data = encode(report, packet::FlowKeyKind::kFiveTuple, "{\"x\":1}");
  data.pop_back();  // length prefix no longer matches the payload
  EXPECT_THROW((void)decode_full(data), CodecError);
  // Chop into the length prefix itself.
  data.resize(encoded_size(report) + 2);
  EXPECT_THROW((void)decode_full(data), CodecError);
}

}  // namespace
}  // namespace nd::reporting
