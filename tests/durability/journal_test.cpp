// Collector crash-recovery journal suite: the journal codec round
// trip, torn-record resync, the collector's journal group commit, and
// the end-to-end restart property — a collector rebuilt from its
// journal merges bit-identically to one that never died, with devices
// replaying their spools absorbed by first-copy-wins dedup — and the
// block-by-block file replay, which must see exactly what a replay of
// the whole file sees. The append writer itself (faults, fsync
// counting) is the WalWriter suite's.
#include "net/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
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
#include "telemetry/metrics.hpp"

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

TEST(Journal, CodecRoundTripThroughReplay) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  std::vector<std::uint8_t> bytes;
  reporting::wal::append(bytes, kJournalMagic,
                         encode_journal_report(7, 2, payload));
  reporting::wal::append(bytes, kJournalMagic, encode_journal_bye(7, 3, 5));

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
  reporting::wal::append(bytes, kJournalMagic,
                         encode_journal_report(1, 0, first));
  // A record torn mid-write: only half its bytes ever landed.
  const std::vector<std::uint8_t> middle = {30, 31, 32, 33};
  std::vector<std::uint8_t> torn;
  reporting::wal::append(torn, kJournalMagic,
                         encode_journal_report(2, 0, middle));
  bytes.insert(bytes.end(), torn.begin(),
               torn.begin() + static_cast<std::ptrdiff_t>(torn.size() / 2));
  reporting::wal::append(bytes, kJournalMagic,
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
  reporting::wal::append(bytes, kJournalMagic, unknown_type);
  reporting::wal::append(bytes, kJournalMagic, too_short);
  RecordedEvents events;
  const JournalReplayStats stats = replay_journal(bytes, events);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.torn, 2u);
  EXPECT_TRUE(events.reports.empty());
  EXPECT_TRUE(events.byes.empty());
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

TEST(Journal, GroupCommitBatchesFsyncsAndFlushesOnSyncAndClose) {
  // --journal-fsync N through the collector: 5 reports and a bye are 6
  // journal records, so a batch of 4 fsyncs once while running and once
  // more, for the partial batch, when run() returns; 0 never fsyncs.
  for (const std::uint32_t every : {4u, 0u}) {
    telemetry::MetricsRegistry registry;
    {
      CollectorConfig config;
      config.expected_devices = 1;
      config.journal_path =
          fresh_path("group_commit_" + std::to_string(every) + ".wal");
      config.journal_fsync_every = every;
      config.metrics = &registry;
      Collector collector(config);
      collector.start();
      {
        TcpTransportConfig transport_config;
        transport_config.port = collector.port();
        TcpTransport transport(transport_config);
        for (std::uint32_t interval = 0; interval < 5; ++interval) {
          ASSERT_TRUE(transport.send_frame(reporting::frame_payload(
              reporting::encode(make_report(interval, 3),
                                packet::FlowKeyKind::kFiveTuple))));
        }
        ASSERT_TRUE(transport.send_bye(5));
      }
      ASSERT_TRUE(collector.wait());
      EXPECT_EQ(collector.stats().journal_records, 6u);
      EXPECT_EQ(registry.counter("nd_journal_fsync_total").value(),
                every == 0 ? 0u : 2u);
    }
    // Nothing was left for closing the journal to flush.
    EXPECT_EQ(registry.counter("nd_journal_fsync_total").value(),
              every == 0 ? 0u : 2u);
  }
}

TEST(Journal, FsyncBatchDefaultsToPerAppend) {
  // A collector left at its default fsyncs every journal record: 4
  // reports and a bye are 5 records and 5 fsyncs.
  telemetry::MetricsRegistry registry;
  CollectorConfig config;
  EXPECT_EQ(config.journal_fsync_every, 1u);
  config.expected_devices = 1;
  config.journal_path = fresh_path("batch_default.wal");
  config.metrics = &registry;
  Collector collector(config);
  collector.start();
  {
    TcpTransportConfig transport_config;
    transport_config.port = collector.port();
    TcpTransport transport(transport_config);
    for (std::uint32_t interval = 0; interval < 4; ++interval) {
      ASSERT_TRUE(transport.send_frame(reporting::frame_payload(
          reporting::encode(make_report(interval, 1),
                            packet::FlowKeyKind::kFiveTuple))));
    }
    ASSERT_TRUE(transport.send_bye(4));
  }
  ASSERT_TRUE(collector.wait());
  EXPECT_EQ(collector.stats().journal_records, 5u);
  EXPECT_EQ(registry.counter("nd_journal_fsync_total").value(), 5u);
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
    reporting::wal::Writer writer({.store = "journal"});
    writer.open(journal);
    const std::vector<std::uint8_t> payload = reporting::encode(
        make_report(0, 4), packet::FlowKeyKind::kFiveTuple, {});
    writer.append(kJournalMagic, encode_journal_report(0, 0, payload));
    writer.append(kJournalMagic, encode_journal_bye(0, 0, 1));
    ASSERT_EQ(writer.stats().appended, 2u);
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

/// Every event a replay delivered, in order, as one comparable value.
std::vector<std::string> event_log(const RecordedEvents& events) {
  std::vector<std::string> log;
  for (const auto& report : events.reports) {
    log.push_back("report " + std::to_string(report.device) + " " +
                  std::to_string(report.epoch) + " " +
                  std::string(report.payload.begin(), report.payload.end()));
  }
  for (const auto& bye : events.byes) {
    log.push_back("bye " + std::to_string(bye.device) + " " +
                  std::to_string(bye.epoch) + " " +
                  std::to_string(bye.intervals));
  }
  return log;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, BlockReplayMatchesWholeFileReplayAtEveryBlockSize) {
  // Reports, a bye, and damage of each kind: a torn record (cut short),
  // stray bytes, a record with a flipped payload byte, and a file that
  // ends inside a record.
  std::vector<std::uint8_t> bytes;
  const auto report = [](std::uint32_t device, common::IntervalIndex interval,
                         std::size_t flows) {
    return encode_journal_report(
        device, 1,
        reporting::encode(make_report(interval, flows),
                          packet::FlowKeyKind::kFiveTuple));
  };
  reporting::wal::append(bytes, kJournalMagic, report(0, 0, 40));
  reporting::wal::append(bytes, kJournalMagic, report(1, 0, 3));
  std::vector<std::uint8_t> torn;
  reporting::wal::append(torn, kJournalMagic, report(0, 1, 10));
  bytes.insert(bytes.end(), torn.begin(), torn.end() - 7);
  bytes.insert(bytes.end(), {0x4E, 0x44, 0x4A, 0x00, 0x17});
  std::vector<std::uint8_t> flipped;
  reporting::wal::append(flipped, kJournalMagic, report(1, 1, 5));
  flipped[40] ^= 0x01;
  bytes.insert(bytes.end(), flipped.begin(), flipped.end());
  reporting::wal::append(bytes, kJournalMagic, report(0, 2, 200));
  reporting::wal::append(bytes, kJournalMagic, encode_journal_bye(1, 1, 2));
  reporting::wal::append(bytes, kJournalMagic, report(1, 2, 1));
  bytes.resize(bytes.size() - 3);
  const std::string path = fresh_path("blocks.wal");
  write_bytes(path, bytes);

  RecordedEvents whole;
  const JournalReplayStats expected = replay_journal(bytes, whole);
  EXPECT_EQ(expected.records, 4u);
  EXPECT_GE(expected.torn, 3u);
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{5}, std::size_t{12}, std::size_t{13},
        std::size_t{100}, std::size_t{4096}, bytes.size(),
        kJournalReplayBlockBytes}) {
    RecordedEvents blocks;
    const JournalReplayStats stats = replay_journal_file(path, blocks, block);
    EXPECT_EQ(stats.records, expected.records) << "block " << block;
    EXPECT_EQ(stats.torn, expected.torn) << "block " << block;
    EXPECT_EQ(event_log(blocks), event_log(whole)) << "block " << block;
  }
  RecordedEvents none;
  const JournalReplayStats missing =
      replay_journal_file(fresh_path("absent.wal"), none);
  EXPECT_EQ(missing.records + missing.torn, 0u);
}

TEST(Journal, JournalLargerThanOneBlockReplaysLikeTheWholeFile) {
  // Two devices, twelve intervals of ~48 KiB reports each: a journal of
  // more than one replay block, with a torn record in the middle.
  const std::string journal = fresh_path("large.wal");
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<core::Report>> members(12);
  for (common::IntervalIndex interval = 0; interval < 12; ++interval) {
    for (std::uint32_t device = 0; device < 2; ++device) {
      core::Report report = make_report(interval, 2000 + 10 * device);
      const std::vector<std::uint8_t> payload =
          reporting::encode(report, packet::FlowKeyKind::kFiveTuple);
      std::vector<std::uint8_t> record;
      reporting::wal::append(record, kJournalMagic,
                             encode_journal_report(device, 0, payload));
      if (interval == 5 && device == 1) {
        bytes.insert(bytes.end(), record.begin(), record.end() - 100);
        continue;  // torn: device 1 never delivered interval 5
      }
      bytes.insert(bytes.end(), record.begin(), record.end());
      members[interval].push_back(reporting::decode(payload));
    }
  }
  ASSERT_GT(bytes.size(), kJournalReplayBlockBytes);
  write_bytes(journal, bytes);
  RecordedEvents whole;
  const JournalReplayStats expected = replay_journal(bytes, whole);

  CollectorConfig config;
  config.expected_devices = 2;
  config.journal_path = journal;
  const Collector collector(config);
  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.journal_replayed, expected.records);
  EXPECT_EQ(stats.journal_torn_records, expected.torn);
  EXPECT_EQ(stats.reports_ingested, expected.records);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Interval 5 waits for device 1, so 0-4 merged and 5-11 are open:
  // merged_reports() covers both, each the whole-file merge.
  const std::vector<core::Report> merged = collector.merged_reports();
  ASSERT_EQ(merged.size(), members.size());
  for (common::IntervalIndex interval = 0; interval < 12; ++interval) {
    testing::expect_reports_equal(
        merged[interval],
        core::merge_member_reports(interval, members[interval]));
  }
}

}  // namespace
}  // namespace nd::net
