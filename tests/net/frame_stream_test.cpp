// FrameStreamParser unit suite: whole-frame dispatch, arbitrary chunk
// boundaries, and the resync rule (malformed bytes are skipped to the
// next plausible boundary — the frames that follow always survive).
#include "net/frame_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/cpu_features.hpp"
#include "core/device.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"

namespace nd::net {
namespace {

struct RecordingEvents final : FrameStreamParser::Events {
  std::vector<Hello> hellos;
  std::vector<Bye> byes;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::size_t> resyncs;

  void on_hello(const Hello& hello) override { hellos.push_back(hello); }
  void on_bye(const Bye& bye) override { byes.push_back(bye); }
  void on_report_frame(std::span<const std::uint8_t> payload) override {
    payloads.emplace_back(payload.begin(), payload.end());
  }
  void on_resync(std::size_t skipped) override {
    resyncs.push_back(skipped);
  }
};

core::Report make_report(common::IntervalIndex interval,
                         std::size_t flows) {
  core::Report report;
  report.interval = interval;
  report.threshold = 40'000;
  for (std::size_t i = 0; i < flows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FF,
        static_cast<std::uint16_t>(2000 + i), 443,
        packet::IpProtocol::kTcp);
    flow.estimated_bytes = 90'000 + 500 * i;
    report.flows.push_back(flow);
  }
  return report;
}

std::vector<std::uint8_t> report_frame(common::IntervalIndex interval,
                                       std::size_t flows) {
  return reporting::frame_payload(reporting::encode(
      make_report(interval, flows), packet::FlowKeyKind::kFiveTuple));
}

void feed_all(FrameStreamParser& parser,
              const std::vector<std::uint8_t>& bytes,
              RecordingEvents& events) {
  parser.feed(bytes, events);
}

TEST(FrameStream, ControlFramesRoundTrip) {
  FrameStreamParser parser;
  RecordingEvents events;
  feed_all(parser, encode_hello(Hello{42, 3}), events);
  feed_all(parser, encode_bye(Bye{42, 17}), events);

  ASSERT_EQ(events.hellos.size(), 1u);
  EXPECT_EQ(events.hellos[0].device_id, 42u);
  EXPECT_EQ(events.hellos[0].epoch, 3u);
  ASSERT_EQ(events.byes.size(), 1u);
  EXPECT_EQ(events.byes[0].device_id, 42u);
  EXPECT_EQ(events.byes[0].intervals, 17u);
  EXPECT_TRUE(events.resyncs.empty());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameStream, ReportFrameIsVerifiedAndDelivered) {
  const std::vector<std::uint8_t> frame = report_frame(5, 4);
  FrameStreamParser parser;
  RecordingEvents events;
  feed_all(parser, frame, events);

  ASSERT_EQ(events.payloads.size(), 1u);
  const core::Report decoded = reporting::decode(events.payloads[0]);
  EXPECT_EQ(decoded.interval, 5u);
  EXPECT_EQ(decoded.flows.size(), 4u);
  EXPECT_TRUE(events.resyncs.empty());
}

TEST(FrameStream, ByteByByteFeedDeliversEverything) {
  // The parser must be indifferent to chunk boundaries: one byte at a
  // time is the worst case TCP can legally produce.
  std::vector<std::uint8_t> stream = encode_hello(Hello{9, 0});
  const std::vector<std::uint8_t> frame1 = report_frame(0, 3);
  const std::vector<std::uint8_t> frame2 = report_frame(1, 1);
  stream.insert(stream.end(), frame1.begin(), frame1.end());
  stream.insert(stream.end(), frame2.begin(), frame2.end());
  const std::vector<std::uint8_t> bye = encode_bye(Bye{9, 2});
  stream.insert(stream.end(), bye.begin(), bye.end());

  FrameStreamParser parser;
  RecordingEvents events;
  for (const std::uint8_t byte : stream) {
    parser.feed({&byte, 1}, events);
  }
  EXPECT_EQ(events.hellos.size(), 1u);
  EXPECT_EQ(events.payloads.size(), 2u);
  EXPECT_EQ(events.byes.size(), 1u);
  EXPECT_TRUE(events.resyncs.empty());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameStream, GarbageBetweenFramesResyncs) {
  const std::vector<std::uint8_t> frame1 = report_frame(0, 2);
  const std::vector<std::uint8_t> frame2 = report_frame(1, 2);
  std::vector<std::uint8_t> stream = frame1;
  // Garbage with no 'N' anywhere: one resync skips it all.
  const std::vector<std::uint8_t> garbage(37, 0xAB);
  stream.insert(stream.end(), garbage.begin(), garbage.end());
  stream.insert(stream.end(), frame2.begin(), frame2.end());

  FrameStreamParser parser;
  RecordingEvents events;
  feed_all(parser, stream, events);

  ASSERT_EQ(events.payloads.size(), 2u);
  EXPECT_EQ(reporting::decode(events.payloads[1]).interval, 1u);
  EXPECT_GE(events.resyncs.size(), 1u);
  std::size_t skipped = 0;
  for (const std::size_t n : events.resyncs) skipped += n;
  EXPECT_EQ(skipped, garbage.size());
}

TEST(FrameStream, CorruptedCrcResyncsToNextFrame) {
  std::vector<std::uint8_t> frame1 = report_frame(0, 2);
  frame1[frame1.size() - 1] ^= 0x01;  // payload flip: CRC must catch it
  const std::vector<std::uint8_t> frame2 = report_frame(1, 2);
  std::vector<std::uint8_t> stream = frame1;
  stream.insert(stream.end(), frame2.begin(), frame2.end());

  FrameStreamParser parser;
  RecordingEvents events;
  feed_all(parser, stream, events);

  // The corrupted frame is never delivered; the next one survives.
  ASSERT_EQ(events.payloads.size(), 1u);
  EXPECT_EQ(reporting::decode(events.payloads[0]).interval, 1u);
  EXPECT_GE(events.resyncs.size(), 1u);
}

TEST(FrameStream, AbsurdLengthPrefixResyncsInsteadOfWaiting) {
  // A length prefix above the cap must be treated as corruption
  // immediately — not held as a frame the parser waits gigabytes for.
  std::vector<std::uint8_t> frame = report_frame(0, 1);
  frame[4] = 0xFF;  // length high byte: now far beyond the cap
  const std::vector<std::uint8_t> good = report_frame(1, 1);
  std::vector<std::uint8_t> stream = frame;
  stream.insert(stream.end(), good.begin(), good.end());

  FrameStreamParser parser;
  RecordingEvents events;
  feed_all(parser, stream, events);

  ASSERT_EQ(events.payloads.size(), 1u);
  EXPECT_EQ(reporting::decode(events.payloads[0]).interval, 1u);
  EXPECT_GE(events.resyncs.size(), 1u);
}

TEST(FrameStream, ResetDropsBufferedPartialFrame) {
  const std::vector<std::uint8_t> frame = report_frame(0, 3);
  FrameStreamParser parser;
  RecordingEvents events;
  // A connection dying mid-frame leaves a prefix buffered.
  parser.feed({frame.data(), frame.size() / 2}, events);
  EXPECT_TRUE(events.payloads.empty());
  EXPECT_GT(parser.buffered(), 0u);
  EXPECT_EQ(parser.reset(), frame.size() / 2);
  EXPECT_EQ(parser.buffered(), 0u);

  // The parser is clean again: a fresh copy of the frame delivers.
  feed_all(parser, frame, events);
  EXPECT_EQ(events.payloads.size(), 1u);
  EXPECT_TRUE(events.resyncs.empty());
}

TEST(FrameStream, HardwareCrcFramesParseUnderEveryDispatchTier) {
  // A frame encoded with the hardware CRC kernel must verify (and a
  // corrupted one must resync) no matter which tier the *parser's*
  // process runs — the wire format cannot depend on the sender's CPU.
  const common::SimdLevel tiers[] = {common::SimdLevel::kAvx2,
                                     common::SimdLevel::kNeon,
                                     common::SimdLevel::kScalar};
  std::vector<std::uint8_t> hw_frame1, hw_frame2;
  {
    common::ScopedSimdLevel forced(common::SimdLevel::kAvx2);
    // 600 flows: the payload is far past the 64-byte hardware-kernel
    // threshold, so the frame CRC really comes from the wide path.
    hw_frame1 = report_frame(0, 600);
    hw_frame2 = report_frame(1, 600);
  }
  for (const common::SimdLevel tier : tiers) {
    common::ScopedSimdLevel forced(tier);
    std::vector<std::uint8_t> stream = hw_frame1;
    std::vector<std::uint8_t> bad = hw_frame1;
    bad[bad.size() / 2] ^= 0x40;  // mid-payload flip
    stream.insert(stream.end(), bad.begin(), bad.end());
    stream.insert(stream.end(), hw_frame2.begin(), hw_frame2.end());

    FrameStreamParser parser;
    RecordingEvents events;
    feed_all(parser, stream, events);

    ASSERT_EQ(events.payloads.size(), 2u)
        << "parser tier=" << common::simd_name(forced.applied());
    EXPECT_EQ(reporting::decode(events.payloads[0]).interval, 0u);
    EXPECT_EQ(reporting::decode(events.payloads[1]).interval, 1u);
    EXPECT_GE(events.resyncs.size(), 1u);
  }
}

TEST(FrameStream, InterleavedControlAndDataAcrossSplitBoundary) {
  // Split exactly inside the hello magic to force the
  // could-be-a-magic-still-arriving buffering path.
  std::vector<std::uint8_t> stream = encode_hello(Hello{1, 0});
  const std::vector<std::uint8_t> frame = report_frame(0, 1);
  stream.insert(stream.end(), frame.begin(), frame.end());

  FrameStreamParser parser;
  RecordingEvents events;
  parser.feed({stream.data(), 2}, events);
  EXPECT_TRUE(events.hellos.empty());
  parser.feed({stream.data() + 2, stream.size() - 2}, events);
  EXPECT_EQ(events.hellos.size(), 1u);
  EXPECT_EQ(events.payloads.size(), 1u);
  EXPECT_TRUE(events.resyncs.empty());
}

}  // namespace
}  // namespace nd::net
