// Collector crash-recovery journal suite: the journal codec round
// trip, torn-record resync, the journal.torn_record fault site, and
// the end-to-end restart property — a collector rebuilt from its
// journal merges bit-identically to one that never died, with devices
// replaying their spools absorbed by first-copy-wins dedup.
#include "net/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "../support/report_testing.hpp"
#include "core/device.hpp"
#include "net/collector.hpp"
#include "net/transport.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/wal.hpp"
#include "robustness/fault.hpp"

namespace nd::net {
namespace {

namespace fs = std::filesystem;

std::string fresh_path(const std::string& name) {
  const fs::path path =
      fs::path(::testing::TempDir()) / ("nd_journal_" + name);
  fs::remove_all(path);
  return path.string();
}

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

struct RecordedEvents final : JournalReplayEvents {
  struct ReportEvent {
    std::uint32_t device;
    std::uint32_t epoch;
    std::vector<std::uint8_t> payload;
  };
  struct ByeEvent {
    std::uint32_t device;
    std::uint32_t epoch;
    std::uint32_t intervals;
  };
  std::vector<ReportEvent> reports;
  std::vector<ByeEvent> byes;

  void on_report(std::uint32_t device_id, std::uint32_t epoch,
                 std::span<const std::uint8_t> payload) override {
    reports.push_back(
        {device_id, epoch, {payload.begin(), payload.end()}});
  }
  void on_bye(std::uint32_t device_id, std::uint32_t epoch,
              std::uint32_t intervals) override {
    byes.push_back({device_id, epoch, intervals});
  }
};

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Journal, CodecRoundTripThroughReplay) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  std::vector<std::uint8_t> bytes;
  reporting::wal::append_record(bytes, kJournalMagic,
                                encode_journal_report(7, 2, payload));
  reporting::wal::append_record(bytes, kJournalMagic,
                                encode_journal_bye(7, 3, 5));

  RecordedEvents events;
  const JournalReplayStats stats = replay_journal(bytes, events);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn, 0u);
  ASSERT_EQ(events.reports.size(), 1u);
  EXPECT_EQ(events.reports[0].device, 7u);
  EXPECT_EQ(events.reports[0].epoch, 2u);
  EXPECT_EQ(events.reports[0].payload, payload);
  ASSERT_EQ(events.byes.size(), 1u);
  EXPECT_EQ(events.byes[0].device, 7u);
  EXPECT_EQ(events.byes[0].epoch, 3u);
  EXPECT_EQ(events.byes[0].intervals, 5u);
}

TEST(Journal, ReplayResyncsPastTornRecord) {
  const std::vector<std::uint8_t> first = {10, 11, 12};
  const std::vector<std::uint8_t> last = {20, 21, 22};
  std::vector<std::uint8_t> bytes;
  reporting::wal::append_record(bytes, kJournalMagic,
                                encode_journal_report(1, 0, first));
  // A record torn mid-write: only half its bytes ever landed.
  const std::vector<std::uint8_t> middle = {30, 31, 32, 33};
  const std::vector<std::uint8_t> torn = reporting::wal::encode_record(
      kJournalMagic, encode_journal_report(2, 0, middle));
  bytes.insert(bytes.end(), torn.begin(),
               torn.begin() + static_cast<std::ptrdiff_t>(torn.size() / 2));
  reporting::wal::append_record(bytes, kJournalMagic,
                                encode_journal_report(3, 0, last));

  RecordedEvents events;
  const JournalReplayStats stats = replay_journal(bytes, events);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_GE(stats.torn, 1u);
  ASSERT_EQ(events.reports.size(), 2u);
  EXPECT_EQ(events.reports[0].payload, first);
  EXPECT_EQ(events.reports[1].payload, last);
}

TEST(Journal, MalformedPayloadIsRejectedNotCrashed) {
  // CRC-valid wal records whose journal payloads are garbage: an
  // unknown type tag, and one too short to even hold the header.
  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint8_t> unknown_type(10, 9);
  const std::vector<std::uint8_t> too_short = {0};
  reporting::wal::append_record(bytes, kJournalMagic, unknown_type);
  reporting::wal::append_record(bytes, kJournalMagic, too_short);
  RecordedEvents events;
  const JournalReplayStats stats = replay_journal(bytes, events);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.torn, 2u);
  EXPECT_TRUE(events.reports.empty());
  EXPECT_TRUE(events.byes.empty());
}

TEST(Journal, GroupCommitBatchesFsyncsAndFlushesOnSyncAndClose) {
  JournalWriterConfig config;
  config.path = fresh_path("group_commit.wal");
  config.fsync_batch = 3;
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  {
    JournalWriter writer(config);
    for (std::uint32_t i = 0; i < 7; ++i) {
      const std::vector<std::uint8_t> payload = {
          static_cast<std::uint8_t>(i), 2, 3};
      ASSERT_TRUE(writer.append(encode_journal_report(1, 0, payload)));
    }
    // 7 appends / batch of 3 = 2 full batches; 1 record pending.
    EXPECT_EQ(writer.stats().appended, 7u);
    EXPECT_EQ(writer.stats().fsyncs, 2u);
    writer.sync();
    EXPECT_EQ(writer.stats().fsyncs, 3u);
    writer.sync();  // nothing pending: no extra fsync
    EXPECT_EQ(writer.stats().fsyncs, 3u);
    EXPECT_EQ(registry.counter("nd_journal_fsync_total").value(), 3u);
    ASSERT_TRUE(writer.append(encode_journal_bye(1, 0, 7)));
    // Destructor flushes the final partial batch before close.
  }
  std::ifstream in(config.path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)),
      std::istreambuf_iterator<char>());
  RecordedEvents events;
  const JournalReplayStats stats = replay_journal(bytes, events);
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.torn, 0u);
}

TEST(Journal, FsyncBatchDefaultsToPerAppend) {
  JournalWriterConfig config;
  config.path = fresh_path("batch_default.wal");
  JournalWriter writer(config);
  const std::vector<std::uint8_t> payload = {1};
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(writer.append(encode_journal_report(1, 0, payload)));
  }
  EXPECT_EQ(writer.stats().fsyncs, 4u);
}

TEST(Journal, WriterTornFaultCostsOnlyTheTornRecord) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kTruncate;
  spec.schedule = {0};
  robustness::FaultInjector faults(
      robustness::FaultPlan(5).inject("journal.torn_record", spec));

  JournalWriterConfig config;
  config.path = fresh_path("torn.wal");
  config.faults = &faults;
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {42, 43, 44};
  {
    JournalWriter writer(config);
    EXPECT_FALSE(writer.append(encode_journal_report(1, 0, first)));
    EXPECT_EQ(writer.stats().torn_writes, 1u);
    EXPECT_TRUE(writer.append(encode_journal_report(2, 0, second)));
    EXPECT_EQ(writer.stats().appended, 1u);
  }
  RecordedEvents events;
  const JournalReplayStats stats =
      replay_journal(read_file_bytes(config.path), events);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(events.reports.size(), 1u);
  EXPECT_EQ(events.reports[0].device, 2u);
  EXPECT_EQ(events.reports[0].payload, second);
}

/// Block until the collector has ingested (or deduplicated) `count`
/// reports — send_frame returns at the socket, not at the merge.
void wait_for_frames(const Collector& collector, std::uint64_t count) {
  for (int i = 0; i < 2000; ++i) {
    const CollectorStats stats = collector.stats();
    if (stats.reports_ingested + stats.duplicate_reports >= count) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "collector never saw " << count << " reports";
}

TEST(Journal, CollectorRestartMergesBitIdenticallyToUninterruptedRun) {
  const std::string journal = fresh_path("restart.wal");
  const packet::FlowKeyKind kind = packet::FlowKeyKind::kFiveTuple;

  // Incarnation 1 accepts two intervals, then dies without a bye (the
  // destructor models the kill: nothing is flushed beyond the journal).
  {
    CollectorConfig config;
    config.expected_devices = 1;
    config.journal_path = journal;
    Collector collector(config);
    collector.start();
    TcpTransportConfig transport_config;
    transport_config.port = collector.port();
    transport_config.device_id = 0;
    TcpTransport transport(transport_config);
    ASSERT_TRUE(transport.send_frame(
        reporting::frame_payload(reporting::encode(make_report(0, 6), kind))));
    ASSERT_TRUE(transport.send_frame(
        reporting::frame_payload(reporting::encode(make_report(1, 6), kind))));
    wait_for_frames(collector, 2);
    EXPECT_EQ(collector.stats().journal_records, 2u);
    collector.stop();
    EXPECT_FALSE(collector.wait());
  }

  // Incarnation 2 replays the journal, then the device replays its
  // spool (intervals 0 and 1 again — duplicates) plus the rest.
  CollectorConfig config;
  config.expected_devices = 1;
  config.journal_path = journal;
  Collector restarted(config);
  EXPECT_EQ(restarted.stats().journal_replayed, 2u);
  EXPECT_EQ(restarted.stats().journal_torn_records, 0u);
  restarted.start();
  {
    TcpTransportConfig transport_config;
    transport_config.port = restarted.port();
    transport_config.device_id = 0;
    TcpTransport transport(transport_config);
    for (std::uint32_t interval = 0; interval < 3; ++interval) {
      ASSERT_TRUE(transport.send_frame(reporting::frame_payload(
          reporting::encode(make_report(interval, 6), kind))));
    }
    ASSERT_TRUE(transport.send_bye(3));
  }
  ASSERT_TRUE(restarted.wait());
  EXPECT_EQ(restarted.stats().duplicate_reports, 2u);
  EXPECT_EQ(restarted.devices_done(), 1u);

  // The uninterrupted reference: same three intervals, one clean run.
  CollectorConfig reference_config;
  reference_config.expected_devices = 1;
  Collector reference(reference_config);
  reference.start();
  {
    TcpTransportConfig transport_config;
    transport_config.port = reference.port();
    transport_config.device_id = 0;
    TcpTransport transport(transport_config);
    for (std::uint32_t interval = 0; interval < 3; ++interval) {
      ASSERT_TRUE(transport.send_frame(reporting::frame_payload(
          reporting::encode(make_report(interval, 6), kind))));
    }
    ASSERT_TRUE(transport.send_bye(3));
  }
  ASSERT_TRUE(reference.wait());

  const std::vector<core::Report> recovered = restarted.merged_reports();
  const std::vector<core::Report> expected = reference.merged_reports();
  ASSERT_EQ(recovered.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    testing::expect_reports_equal(recovered[i], expected[i]);
  }
}

TEST(Journal, ReplayedByeCompletesCollectionWithoutConnections) {
  // A collector killed after the fleet's last bye restarts and is
  // already done: the journal alone carries the full collection.
  const std::string journal = fresh_path("bye.wal");
  {
    JournalWriterConfig writer_config;
    writer_config.path = journal;
    JournalWriter writer(writer_config);
    const std::vector<std::uint8_t> payload = reporting::encode(
        make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    ASSERT_TRUE(writer.append(encode_journal_report(0, 0, payload)));
    ASSERT_TRUE(writer.append(encode_journal_bye(0, 0, 1)));
  }
  CollectorConfig config;
  config.expected_devices = 1;
  config.timeout = std::chrono::milliseconds(5000);
  config.journal_path = journal;
  Collector collector(config);
  EXPECT_EQ(collector.stats().journal_replayed, 2u);
  EXPECT_EQ(collector.devices_done(), 1u);
  EXPECT_TRUE(collector.run());
  EXPECT_EQ(collector.stats().connections_accepted, 0u);
  ASSERT_EQ(collector.merged_reports().size(), 1u);
}

}  // namespace
}  // namespace nd::net
