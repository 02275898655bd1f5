// SpoolWal unit suite: append/recover round trips, watermark
// ack/rewind semantics, segment rotation, the disk-budget
// evict-then-shed-then-drop ladder, every spool.* fault site, and the
// ResilientChannel integration (exhausted reports stay spooled; a
// transport failure mid-drain rewinds and the full log replays).
#include "reporting/spool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "../support/collector_sink.hpp"
#include "../support/report_testing.hpp"
#include "core/device.hpp"
#include "net/frame_stream.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "robustness/fault.hpp"

namespace nd::reporting {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty spool directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nd_spool_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Flows already sorted largest-first so shed predictions are exact
/// (ResilientChannel::send sorts before appending; direct appends here
/// pre-sort the same way).
core::Report make_report(common::IntervalIndex interval,
                         std::size_t flows) {
  core::Report report;
  report.interval = interval;
  report.threshold = 50'000;
  for (std::size_t i = 0; i < flows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FF,
        static_cast<std::uint16_t>(1000 + i), 80,
        packet::IpProtocol::kTcp);
    flow.estimated_bytes = 200'000 - 10'000 * i;
    report.flows.push_back(flow);
  }
  return report;
}

robustness::FaultPlan site_schedule(const std::string& site,
                                    std::vector<std::uint64_t> schedule) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.schedule = std::move(schedule);
  return robustness::FaultPlan(5).inject(site, spec);
}

/// Frame size on disk for a no-shard, no-trailer report with F flows.
constexpr std::uint64_t frame_bytes(std::uint64_t flows) {
  return kFrameHeaderBytes + kHeaderBytes + flows * kRecordBytes +
         kTrailerLengthBytes;
}

TEST(SpoolWal, AppendRecoverRoundTrip) {
  SpoolWalConfig config;
  config.directory = fresh_dir("roundtrip");
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 3; ++i) {
      const SpoolWal::AppendResult result = spool.append(
          make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
      EXPECT_EQ(result.index, i);
      EXPECT_TRUE(result.durable);
      EXPECT_EQ(result.records_shed, 0u);
    }
    EXPECT_EQ(spool.stats().appended, 3u);
    EXPECT_EQ(spool.backlog(), 3u);
  }
  // A new process over the same directory sees every frame, unsent.
  SpoolWal spool(config);
  EXPECT_EQ(spool.stats().recovered, 3u);
  EXPECT_EQ(spool.stats().torn_records, 0u);
  EXPECT_EQ(spool.watermark(), 0u);
  ASSERT_EQ(spool.frame_count(), 3u);
  EXPECT_TRUE(spool.draining());
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(spool.frame_interval(i), i);
    const DecodedReport decoded = decode_full(unframe(spool.frame(i)));
    testing::expect_reports_equal(decoded.report, make_report(i, 4));
  }
}

TEST(SpoolWal, WatermarkAckAndRewind) {
  SpoolWalConfig config;
  config.directory = fresh_dir("watermark");
  SpoolWal spool(config);
  for (std::uint32_t i = 0; i < 3; ++i) {
    spool.append(make_report(i, 2), packet::FlowKeyKind::kFiveTuple, {});
  }
  spool.ack();
  spool.ack();
  EXPECT_EQ(spool.watermark(), 2u);
  EXPECT_EQ(spool.backlog(), 1u);
  EXPECT_EQ(spool.stats().acked, 2u);

  // A dead connection marks the whole log pending again.
  spool.rewind();
  EXPECT_EQ(spool.watermark(), 0u);
  EXPECT_EQ(spool.backlog(), 3u);
  EXPECT_EQ(spool.stats().rewinds, 1u);
  // Rewinding an already-rewound log is a no-op, not a new rewind.
  spool.rewind();
  EXPECT_EQ(spool.stats().rewinds, 1u);

  spool.ack();
  spool.ack();
  spool.ack();
  EXPECT_EQ(spool.backlog(), 0u);
  EXPECT_FALSE(spool.draining());
}

TEST(SpoolWal, RotationFinalizesSegmentsAndRecoveryFindsAll) {
  SpoolWalConfig config;
  config.directory = fresh_dir("rotate");
  config.max_segment_bytes = 1;  // every frame rotates into its own file
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 3; ++i) {
      spool.append(make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
    }
    EXPECT_GE(spool.stats().segments_created, 3u);
    std::size_t closed = 0;
    std::size_t open = 0;
    for (const auto& entry : fs::directory_iterator(config.directory)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".seg.open")) {
        ++open;
      } else if (name.ends_with(".seg")) {
        ++closed;
      }
    }
    EXPECT_EQ(closed, 2u);  // rotation finalized by rename
    EXPECT_EQ(open, 1u);    // the active segment
  }
  SpoolWal spool(config);
  EXPECT_EQ(spool.stats().recovered, 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(spool.frame_interval(i), i);
  }
}

/// Collects what a FrameStreamParser emits.
struct ParsedFrames final : net::FrameStreamParser::Events {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t resyncs{0};
  void on_hello(const net::Hello&) override {}
  void on_bye(const net::Bye&) override {}
  void on_report_frame(std::span<const std::uint8_t> payload) override {
    payloads.emplace_back(payload.begin(), payload.end());
  }
  void on_resync(std::size_t) override { ++resyncs; }
};

TEST(SpoolWal, SegmentBytesParseAsTheRecoveredWireFrames) {
  // The spool record is the wire frame: a segment file fed to the
  // collector's stream parser yields exactly the frames recovery keeps.
  SpoolWalConfig config;
  config.directory = fresh_dir("segment_is_wire");
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 3; ++i) {
      spool.append(make_report(i, 2 + i), packet::FlowKeyKind::kFiveTuple,
                   i == 1 ? "{\"metrics\":1}" : "");
    }
  }
  SpoolWal spool(config);
  ASSERT_EQ(spool.frame_count(), 3u);
  std::vector<std::uint8_t> segment;
  for (const auto& entry : fs::directory_iterator(config.directory)) {
    std::ifstream in(entry.path(), std::ios::binary);
    segment.insert(segment.end(), std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  net::FrameStreamParser parser;
  ParsedFrames parsed;
  parser.feed(segment, parsed);
  EXPECT_EQ(parsed.resyncs, 0u);
  EXPECT_EQ(parser.buffered(), 0u);
  ASSERT_EQ(parsed.payloads.size(), spool.frame_count());
  for (std::size_t i = 0; i < spool.frame_count(); ++i) {
    std::vector<std::uint8_t> frame = frame_payload(parsed.payloads[i]);
    EXPECT_TRUE(std::ranges::equal(frame, spool.frame(i))) << i;
  }
}

TEST(SpoolWal, GroupCommitBatchesFsyncsAndFlushesOnSyncAndClose) {
  SpoolWalConfig config;
  config.directory = fresh_dir("group_commit");
  config.fsync_every = 4;
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 10; ++i) {
      const SpoolWal::AppendResult result = spool.append(
          make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
      EXPECT_TRUE(result.durable);
    }
    // 10 appends / batch of 4 = 2 full batches; 2 records pending.
    EXPECT_EQ(spool.write_stats().fsyncs, 2u);
    spool.sync();
    EXPECT_EQ(spool.write_stats().fsyncs, 3u);
    spool.sync();  // nothing pending: no extra fsync
    EXPECT_EQ(spool.write_stats().fsyncs, 3u);
    EXPECT_EQ(registry.counter("nd_spool_fsync_total").value(), 3u);
    spool.append(make_report(10, 4), packet::FlowKeyKind::kFiveTuple, {});
    // Destructor flushes the final partial batch.
  }
  SpoolWal spool(config);
  EXPECT_EQ(spool.stats().recovered, 11u);
  EXPECT_EQ(spool.stats().torn_records, 0u);
}

TEST(SpoolWal, GroupCommitFlushesBeforeRotationFinalizesSegment) {
  SpoolWalConfig config;
  config.directory = fresh_dir("group_commit_rotate");
  config.max_segment_bytes = 1;  // every append rotates
  config.fsync_every = 100;      // far larger than the appends below
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 3; ++i) {
      spool.append(make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
    }
    // Each rotation flushed the batch before the rename: a closed .seg
    // must hold everything it claims to.
    EXPECT_GE(spool.write_stats().fsyncs, 2u);
  }
  SpoolWal spool(config);
  EXPECT_EQ(spool.stats().recovered, 3u);
}

TEST(SpoolWal, FsyncBatchOneKeepsPerAppendDurability) {
  SpoolWalConfig config;
  config.directory = fresh_dir("batch_one");
  EXPECT_EQ(config.fsync_every, 1u);
  {
    SpoolWal spool(config);
    for (std::uint32_t i = 0; i < 5; ++i) {
      spool.append(make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
    }
    EXPECT_EQ(spool.write_stats().fsyncs, 5u);
  }
  SpoolWalConfig off = config;
  off.directory = fresh_dir("fsync_off");
  off.fsync_every = 0;
  SpoolWal spool(off);
  spool.append(make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
  spool.sync();
  EXPECT_EQ(spool.write_stats().fsyncs, 0u);
}

TEST(SpoolWal, TornTailCostsExactlyTheLastRecord) {
  SpoolWalConfig config;
  config.directory = fresh_dir("torn_tail");
  {
    SpoolWal spool(config);
    spool.append(make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    spool.append(make_report(1, 4), packet::FlowKeyKind::kFiveTuple, {});
  }
  // Crash model: the tail of the active segment never hit the platter.
  for (const auto& entry : fs::directory_iterator(config.directory)) {
    const std::uintmax_t size = fs::file_size(entry.path());
    if (size == 0) continue;
    fs::resize_file(entry.path(), size - 5);
  }
  SpoolWal spool(config);
  EXPECT_EQ(spool.stats().recovered, 1u);
  EXPECT_EQ(spool.stats().torn_records, 1u);
  ASSERT_EQ(spool.frame_count(), 1u);
  EXPECT_EQ(spool.frame_interval(0), 0u);
  testing::expect_reports_equal(
      decode_full(unframe(spool.frame(0))).report, make_report(0, 4));
}

TEST(SpoolWal, DiskFullFaultKeepsFrameDeliverableInMemory) {
  robustness::FaultInjector faults(site_schedule("spool.disk_full", {0}));
  SpoolWalConfig config;
  config.directory = fresh_dir("disk_full");
  config.faults = &faults;
  {
    SpoolWal spool(config);
    const SpoolWal::AppendResult result = spool.append(
        make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    EXPECT_EQ(result.index, 0u);
    EXPECT_FALSE(result.durable);
    EXPECT_EQ(spool.write_stats().write_errors, 1u);
    // Still deliverable this run: the frame drains from memory.
    EXPECT_EQ(spool.backlog(), 1u);
    testing::expect_reports_equal(
        decode_full(unframe(spool.frame(0))).report, make_report(0, 4));
  }
  // But not durable: a crash before delivery loses exactly this frame.
  SpoolWalConfig clean = config;
  clean.faults = nullptr;
  SpoolWal spool(clean);
  EXPECT_EQ(spool.stats().recovered, 0u);
}

TEST(SpoolWal, TornWriteFaultSurvivesToIntactNeighbors) {
  robustness::FaultInjector faults(
      site_schedule("spool.torn_record", {0}));
  SpoolWalConfig config;
  config.directory = fresh_dir("torn_write");
  config.faults = &faults;
  {
    SpoolWal spool(config);
    const SpoolWal::AppendResult torn = spool.append(
        make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    EXPECT_FALSE(torn.durable);
    EXPECT_EQ(spool.write_stats().torn_writes, 1u);
    const SpoolWal::AppendResult clean = spool.append(
        make_report(1, 4), packet::FlowKeyKind::kFiveTuple, {});
    EXPECT_TRUE(clean.durable);
  }
  // Recovery resyncs past the torn record; the intact neighbor is
  // whole. (The tear's cut point is salt-derived, so the torn prefix
  // may be empty — at most one damaged record is ever reported.)
  SpoolWalConfig clean = config;
  clean.faults = nullptr;
  SpoolWal spool(clean);
  ASSERT_EQ(spool.stats().recovered, 1u);
  EXPECT_LE(spool.stats().torn_records, 1u);
  EXPECT_EQ(spool.frame_interval(0), 1u);
}

TEST(SpoolWal, ShortWriteFaultLandsTheWholeRecord) {
  robustness::FaultInjector faults(
      site_schedule("spool.short_write", {0}));
  SpoolWalConfig config;
  config.directory = fresh_dir("short_write");
  config.faults = &faults;
  {
    SpoolWal spool(config);
    const SpoolWal::AppendResult result = spool.append(
        make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    EXPECT_TRUE(result.durable);
    EXPECT_EQ(spool.write_stats().short_writes, 1u);
  }
  SpoolWalConfig clean = config;
  clean.faults = nullptr;
  SpoolWal spool(clean);
  EXPECT_EQ(spool.stats().recovered, 1u);
  EXPECT_EQ(spool.stats().torn_records, 0u);
}

TEST(SpoolWal, BudgetEvictsAckedFramesOldestFirst) {
  SpoolWalConfig config;
  config.directory = fresh_dir("evict");
  config.max_segment_bytes = 1;  // one frame per segment: eviction can
                                 // actually reclaim closed files
  config.max_total_bytes = 300;  // two 136-byte frames fit, three don't
  SpoolWal spool(config);
  ASSERT_EQ(frame_bytes(4), 136u);
  spool.append(make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
  spool.ack();
  spool.append(make_report(1, 4), packet::FlowKeyKind::kFiveTuple, {});
  spool.ack();
  const SpoolWal::AppendResult result = spool.append(
      make_report(2, 4), packet::FlowKeyKind::kFiveTuple, {});
  // The oldest acked frame made room; nothing was shed or dropped.
  EXPECT_NE(result.index, SpoolWal::npos);
  EXPECT_EQ(result.records_shed, 0u);
  EXPECT_EQ(spool.stats().evicted, 1u);
  EXPECT_EQ(spool.stats().dropped, 0u);
  ASSERT_EQ(spool.frame_count(), 2u);
  EXPECT_EQ(spool.frame_interval(0), 1u);
  EXPECT_EQ(spool.frame_interval(1), 2u);
  EXPECT_EQ(spool.watermark(), 1u);  // interval 1 stays acked
  EXPECT_LE(spool.stats().bytes_on_disk, config.max_total_bytes);
}

TEST(SpoolWal, BudgetShedsSmallestFlowsToFit) {
  SpoolWalConfig config;
  config.directory = fresh_dir("shed");
  config.max_total_bytes = 150;
  SpoolWal spool(config);
  // 8 flows need 232 bytes; the 150-byte budget holds exactly 4.
  const SpoolWal::AppendResult result = spool.append(
      make_report(0, 8), packet::FlowKeyKind::kFiveTuple, {});
  EXPECT_NE(result.index, SpoolWal::npos);
  EXPECT_EQ(result.records_shed, 4u);
  EXPECT_EQ(spool.stats().records_shed, 4u);
  EXPECT_EQ(spool.stats().dropped, 0u);
  // Largest-first keep: the retained prefix is the 4 biggest flows.
  const DecodedReport decoded = decode_full(unframe(spool.frame(0)));
  core::Report expected = make_report(0, 8);
  expected.flows.resize(4);
  testing::expect_reports_equal(decoded.report, expected);
}

TEST(SpoolWal, OversizeReportIsDroppedAndCounted) {
  SpoolWalConfig config;
  config.directory = fresh_dir("drop");
  config.max_total_bytes = 30;  // below even an empty report's 40 bytes
  SpoolWal spool(config);
  const SpoolWal::AppendResult result = spool.append(
      make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
  EXPECT_EQ(result.index, SpoolWal::npos);
  EXPECT_EQ(spool.stats().dropped, 1u);
  EXPECT_EQ(spool.backlog(), 0u);
}

TEST(SpoolWal, ChannelWithoutTransportThrowsAtConstruction) {
  // A spool with no wire to drain it would silently never ship; a
  // channel needs a transport with or without one.
  SpoolWalConfig spool_config;
  spool_config.directory = fresh_dir("no_transport");
  SpoolWal spool(spool_config);
  ResilientChannelConfig config;
  config.spool = &spool;
  EXPECT_THROW((void)ResilientChannel(config), std::invalid_argument);
  EXPECT_THROW((void)ResilientChannel(ResilientChannelConfig{}),
               std::invalid_argument);
}

TEST(SpoolWal, ChannelExhaustionLeavesReportSpooledNotAbandoned) {
  testing::CollectorSink transport({false, false, true});
  SpoolWalConfig spool_config;
  spool_config.directory = fresh_dir("channel_exhaust");
  SpoolWal spool(spool_config);
  ResilientChannelConfig config;
  config.transport = &transport;
  config.spool = &spool;
  config.max_attempts = 2;
  config.backoff_base = std::chrono::microseconds(10);
  ResilientChannel channel(config);

  const DeliveryOutcome outcome = channel.send(make_report(0, 4));
  EXPECT_FALSE(outcome.delivered);
  EXPECT_TRUE(outcome.spooled);
  EXPECT_EQ(outcome.backlog, 1u);
  // The spool converts abandonment into waiting.
  EXPECT_EQ(channel.stats().reports_abandoned, 0u);
  EXPECT_EQ(channel.stats().reports_spooled, 1u);
  EXPECT_EQ(channel.stats().transport_failures, 2u);

  // The wire comes back: an explicit drain empties the backlog.
  EXPECT_TRUE(channel.drain_spool());
  EXPECT_EQ(spool.backlog(), 0u);
  EXPECT_EQ(spool.stats().acked, 1u);
  ASSERT_EQ(transport.frames.size(), 3u);
  testing::expect_reports_equal(
      decode_full(unframe(transport.frames.back())).report,
      make_report(0, 4));
  ASSERT_EQ(transport.reports.size(), 1u);
  testing::expect_reports_equal(transport.reports[0].report,
                                make_report(0, 4));
}

TEST(SpoolWal, ChannelTransportFailureRewindsAndReplaysWholeLog) {
  // Frame 0 delivers; frame 1's first attempt kills the connection.
  // The watermark rewinds to zero, so the retry replays frame 0 (which
  // the collector dedups) before frame 1.
  testing::CollectorSink transport({true, false, true, true});
  SpoolWalConfig spool_config;
  spool_config.directory = fresh_dir("channel_rewind");
  SpoolWal spool(spool_config);
  ResilientChannelConfig config;
  config.transport = &transport;
  config.spool = &spool;
  config.max_attempts = 4;
  config.backoff_base = std::chrono::microseconds(10);
  ResilientChannel channel(config);

  EXPECT_TRUE(channel.send(make_report(0, 4)).delivered);
  const DeliveryOutcome outcome = channel.send(make_report(1, 4));
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.backlog, 0u);
  EXPECT_EQ(spool.stats().rewinds, 1u);
  EXPECT_EQ(spool.backlog(), 0u);
  ASSERT_EQ(transport.frames.size(), 4u);
  // The replay resends frame 0 byte-identically.
  EXPECT_EQ(transport.frames[2], transport.frames[0]);
  testing::expect_reports_equal(
      decode_full(unframe(transport.frames[3])).report, make_report(1, 4));
  // The collector sees frame 0 twice (its dedup keeps the first copy),
  // then frame 1.
  ASSERT_EQ(transport.reports.size(), 3u);
  EXPECT_EQ(transport.reports[2].report.interval, 1u);
}

}  // namespace
}  // namespace nd::reporting
