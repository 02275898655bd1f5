// Stream-framing fuzz tables, extending the decoder-hardening suite
// (tests/robustness/decode_hardening_test.cpp) to the wire: every
// truncation prefix of a frame, every single-byte flip of a short
// frame, and every byte-flip of the control frames. The invariants are
// the collector's survival rules — the parser never throws, a damaged
// frame is never delivered as a report, and after the damage is cut off
// (connection close + reset) a pristine frame always delivers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/device.hpp"
#include "net/frame_stream.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"

namespace nd::net {
namespace {

struct CountingEvents final : FrameStreamParser::Events {
  std::size_t hellos{0};
  std::size_t byes{0};
  std::size_t reports{0};
  std::size_t resyncs{0};

  void on_hello(const Hello&) override { ++hellos; }
  void on_bye(const Bye&) override { ++byes; }
  void on_report_frame(std::span<const std::uint8_t>) override {
    ++reports;
  }
  void on_resync(std::size_t) override { ++resyncs; }
};

std::vector<std::uint8_t> short_frame() {
  core::Report report;
  report.interval = 2;
  report.threshold = 10'000;
  core::ReportedFlow flow;
  flow.key = packet::FlowKey::five_tuple(0x0A000001, 0x0A0000FF, 1234,
                                         80, packet::IpProtocol::kTcp);
  flow.estimated_bytes = 50'000;
  report.flows.push_back(flow);
  return reporting::frame_payload(
      reporting::encode(report, packet::FlowKeyKind::kFiveTuple));
}

TEST(FrameStreamFuzz, EveryTruncationPrefixIsSafe) {
  const std::vector<std::uint8_t> frame = short_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameStreamParser parser;
    CountingEvents events;
    ASSERT_NO_THROW(parser.feed({frame.data(), len}, events))
        << "prefix " << len;
    // A strict prefix never completes the frame (covers the truncated
    // length prefix: fewer than 8 header bytes leaves the length
    // unreadable and the parser waiting, not guessing).
    EXPECT_EQ(events.reports, 0u) << "prefix " << len;
    // Close the connection mid-frame: buffered bytes are dropped and a
    // full retransmit then delivers exactly once.
    (void)parser.reset();
    ASSERT_NO_THROW(parser.feed(frame, events)) << "prefix " << len;
    EXPECT_EQ(events.reports, 1u) << "prefix " << len;
  }
}

TEST(FrameStreamFuzz, EveryByteFlipIsRejectedAndRecoverable) {
  const std::vector<std::uint8_t> frame = short_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const std::uint8_t mask :
         {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> mutated = frame;
      mutated[i] ^= mask;
      FrameStreamParser parser;
      CountingEvents events;
      ASSERT_NO_THROW(parser.feed(mutated, events))
          << "flip at " << i << " mask " << int(mask);
      // CRC32 detects every single-byte error; header damage (magic,
      // length, CRC field) is caught by magic/length/CRC checks. The
      // damaged frame must never surface as a report.
      EXPECT_EQ(events.reports, 0u)
          << "flip at " << i << " mask " << int(mask);
      // The stream recovers once the damage ends: connection close,
      // reset, retransmit.
      (void)parser.reset();
      ASSERT_NO_THROW(parser.feed(frame, events));
      EXPECT_EQ(events.reports, 1u)
          << "flip at " << i << " mask " << int(mask);
    }
  }
}

TEST(FrameStreamFuzz, InStreamByteFlipNeverKillsFollowingTraffic) {
  // The live-stream variant: damaged frame and pristine frame on ONE
  // connection, with the stream still flowing afterwards. Wherever the
  // flip lands, the parser must stay sane; flips that corrupt the
  // length prefix may legitimately swallow the adjacent frame while
  // waiting for phantom bytes, so the hard guarantees are no-throw,
  // no damaged report, and bounded buffering — and whenever a report
  // does surface it is the pristine one, bit-exact (the CRC already
  // proved it).
  const std::vector<std::uint8_t> frame = short_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> stream = frame;
    stream[i] ^= 0x40;
    stream.insert(stream.end(), frame.begin(), frame.end());
    FrameStreamParser parser;
    CountingEvents events;
    ASSERT_NO_THROW(parser.feed(stream, events)) << "flip at " << i;
    EXPECT_LE(events.reports, 1u) << "flip at " << i;
    EXPECT_LE(parser.buffered(), stream.size()) << "flip at " << i;
    if (events.reports == 0) {
      // The pristine frame was consumed by a corrupted length prefix
      // or still sits buffered — either way a resync or pending bytes
      // must account for it.
      EXPECT_TRUE(events.resyncs > 0 || parser.buffered() > 0)
          << "flip at " << i;
    }
  }
}

TEST(FrameStreamFuzz, ControlFrameByteFlipsAreSafe) {
  for (const bool hello : {true, false}) {
    const std::vector<std::uint8_t> control =
        hello ? encode_hello(Hello{3, 1}) : encode_bye(Bye{3, 7});
    for (std::size_t i = 0; i < control.size(); ++i) {
      std::vector<std::uint8_t> stream = control;
      stream[i] ^= 0x10;
      const std::vector<std::uint8_t> frame = short_frame();
      stream.insert(stream.end(), frame.begin(), frame.end());
      FrameStreamParser parser;
      CountingEvents events;
      ASSERT_NO_THROW(parser.feed(stream, events))
          << (hello ? "hello" : "bye") << " flip at " << i;
      // A flipped magic resyncs; a flipped body field just changes the
      // announced value (control frames are 16 fixed bytes, no CRC —
      // the collector treats device identity as advisory). Either way
      // the data frame behind it must deliver.
      EXPECT_EQ(events.reports, 1u)
          << (hello ? "hello" : "bye") << " flip at " << i;
    }
  }
}

TEST(FrameStreamFuzz, DeterministicChunkShreddingDeliversAll) {
  // Feed a multi-frame stream in pseudo-random chunk sizes (fixed
  // pattern, so failures replay): framing must be chunk-agnostic.
  std::vector<std::uint8_t> stream = encode_hello(Hello{1, 0});
  const std::vector<std::uint8_t> frame = short_frame();
  for (int i = 0; i < 8; ++i) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const std::vector<std::uint8_t> bye = encode_bye(Bye{1, 8});
  stream.insert(stream.end(), bye.begin(), bye.end());

  for (std::uint64_t salt = 1; salt <= 16; ++salt) {
    FrameStreamParser parser;
    CountingEvents events;
    std::size_t pos = 0;
    std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL;
    while (pos < stream.size()) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const std::size_t chunk = std::min<std::size_t>(
          1 + static_cast<std::size_t>(state % 23),
          stream.size() - pos);
      parser.feed({stream.data() + pos, chunk}, events);
      pos += chunk;
    }
    EXPECT_EQ(events.hellos, 1u) << "salt " << salt;
    EXPECT_EQ(events.reports, 8u) << "salt " << salt;
    EXPECT_EQ(events.byes, 1u) << "salt " << salt;
    EXPECT_EQ(events.resyncs, 0u) << "salt " << salt;
    EXPECT_EQ(parser.buffered(), 0u) << "salt " << salt;
  }
}

}  // namespace
}  // namespace nd::net
