// Fuzz tables for the two durability formats: every truncation prefix
// and every single-byte flip of a spool segment and a collector
// journal must recover-or-reject — no crash, no invented record, no
// double count. Damage costs exactly the damaged record; intact
// neighbors always survive (wal::scan resyncs byte by byte).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "../support/report_testing.hpp"
#include "core/device.hpp"
#include "net/journal.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/spool.hpp"
#include "reporting/wal.hpp"

namespace nd {
namespace {

namespace fs = std::filesystem;

constexpr std::uint8_t kFlipPatterns[] = {0x01, 0x80, 0xFF};

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

/// The record index owning byte `pos` given each record's end offset.
std::size_t record_at(const std::vector<std::size_t>& ends,
                      std::size_t pos) {
  for (std::size_t i = 0; i < ends.size(); ++i) {
    if (pos < ends[i]) return i;
  }
  return ends.size();
}

// ---------------------------------------------------------------- spool

struct SpoolCorpus {
  std::vector<core::Report> originals;
  std::vector<std::uint8_t> bytes;     // one segment, three frames
  std::vector<std::size_t> frame_ends; // cumulative end offsets
};

SpoolCorpus spool_corpus() {
  SpoolCorpus corpus;
  for (std::uint32_t i = 0; i < 3; ++i) {
    corpus.originals.push_back(make_report(i, 3 + i));
    const std::vector<std::uint8_t> frame =
        reporting::frame_payload(reporting::encode(
            corpus.originals.back(), packet::FlowKeyKind::kFiveTuple));
    corpus.bytes.insert(corpus.bytes.end(), frame.begin(), frame.end());
    corpus.frame_ends.push_back(corpus.bytes.size());
  }
  return corpus;
}

/// Recover a damaged segment image through a real SpoolWal and return
/// the intervals of every surfaced frame (asserting each decodes).
std::vector<common::IntervalIndex> recover_intervals(
    const std::string& dir, std::span<const std::uint8_t> image) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(fs::path(dir) / "wal-000001.seg", std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  reporting::SpoolWalConfig config;
  config.directory = dir;
  config.fsync_every = 0;
  reporting::SpoolWal spool(config);
  std::vector<common::IntervalIndex> intervals;
  for (std::size_t i = 0; i < spool.frame_count(); ++i) {
    const reporting::DecodedReport decoded =
        reporting::decode_full(reporting::unframe(spool.frame(i)));
    EXPECT_EQ(decoded.report.interval, spool.frame_interval(i));
    intervals.push_back(decoded.report.interval);
  }
  return intervals;
}

TEST(DurabilityFuzz, SpoolRecoversExactPrefixUnderEveryTruncation) {
  const SpoolCorpus corpus = spool_corpus();
  const std::string dir =
      (fs::path(::testing::TempDir()) / "nd_fuzz_spool_trunc").string();
  for (std::size_t cut = 0; cut <= corpus.bytes.size(); ++cut) {
    const auto intervals = recover_intervals(
        dir, std::span(corpus.bytes).first(cut));
    // Exactly the frames wholly inside the prefix, in order.
    std::size_t expected = 0;
    while (expected < corpus.frame_ends.size() &&
           corpus.frame_ends[expected] <= cut) {
      ++expected;
    }
    ASSERT_EQ(intervals.size(), expected) << "cut=" << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(intervals[i], corpus.originals[i].interval)
          << "cut=" << cut;
    }
  }
}

TEST(DurabilityFuzz, SpoolByteFlipCostsExactlyTheDamagedFrame) {
  const SpoolCorpus corpus = spool_corpus();
  const std::string dir =
      (fs::path(::testing::TempDir()) / "nd_fuzz_spool_flip").string();
  for (std::size_t pos = 0; pos < corpus.bytes.size(); ++pos) {
    for (const std::uint8_t pattern : kFlipPatterns) {
      std::vector<std::uint8_t> image = corpus.bytes;
      image[pos] ^= pattern;
      const std::size_t damaged = record_at(corpus.frame_ends, pos);
      const auto intervals = recover_intervals(dir, image);
      // The flipped frame is rejected by its CRC (or its magic stops
      // matching); every other frame survives, once, in order.
      ASSERT_EQ(intervals.size(), 2u)
          << "pos=" << pos << " pattern=" << int(pattern);
      std::size_t next = 0;
      for (std::size_t i = 0; i < corpus.originals.size(); ++i) {
        if (i == damaged) continue;
        EXPECT_EQ(intervals[next++], corpus.originals[i].interval)
            << "pos=" << pos << " pattern=" << int(pattern);
      }
    }
  }
}

// -------------------------------------------------------------- journal

struct JournalCorpus {
  std::vector<std::vector<std::uint8_t>> payloads;  // journal payloads
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> record_ends;
};

JournalCorpus journal_corpus() {
  JournalCorpus corpus;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::vector<std::uint8_t> report_payload = reporting::encode(
        make_report(i, 4), packet::FlowKeyKind::kFiveTuple, {});
    corpus.payloads.push_back(net::encode_journal_report(
        0, 0, report_payload));
  }
  corpus.payloads.push_back(net::encode_journal_bye(0, 0, 2));
  for (const auto& payload : corpus.payloads) {
    reporting::wal::append(corpus.bytes, net::kJournalMagic, payload);
    corpus.record_ends.push_back(corpus.bytes.size());
  }
  return corpus;
}

struct CapturedEvents final : net::JournalReplayEvents {
  /// Journal payloads reconstructed from the replay callbacks, for
  /// exact comparison against the originals.
  std::vector<std::vector<std::uint8_t>> payloads;

  void on_report(std::uint32_t device_id, std::uint32_t epoch,
                 std::span<const std::uint8_t> payload) override {
    payloads.push_back(net::encode_journal_report(device_id, epoch,
                                                  payload));
  }
  void on_bye(std::uint32_t device_id, std::uint32_t epoch,
              std::uint32_t intervals) override {
    payloads.push_back(net::encode_journal_bye(device_id, epoch,
                                               intervals));
  }
};

TEST(DurabilityFuzz, JournalReplaysExactPrefixUnderEveryTruncation) {
  const JournalCorpus corpus = journal_corpus();
  for (std::size_t cut = 0; cut <= corpus.bytes.size(); ++cut) {
    CapturedEvents events;
    net::replay_journal(std::span(corpus.bytes).first(cut), events);
    std::size_t expected = 0;
    while (expected < corpus.record_ends.size() &&
           corpus.record_ends[expected] <= cut) {
      ++expected;
    }
    ASSERT_EQ(events.payloads.size(), expected) << "cut=" << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(events.payloads[i], corpus.payloads[i]) << "cut=" << cut;
    }
  }
}

TEST(DurabilityFuzz, JournalByteFlipCostsExactlyTheDamagedRecord) {
  const JournalCorpus corpus = journal_corpus();
  for (std::size_t pos = 0; pos < corpus.bytes.size(); ++pos) {
    for (const std::uint8_t pattern : kFlipPatterns) {
      std::vector<std::uint8_t> image = corpus.bytes;
      image[pos] ^= pattern;
      const std::size_t damaged = record_at(corpus.record_ends, pos);
      CapturedEvents events;
      net::replay_journal(image, events);
      ASSERT_EQ(events.payloads.size(), 2u)
          << "pos=" << pos << " pattern=" << int(pattern);
      std::size_t next = 0;
      for (std::size_t i = 0; i < corpus.payloads.size(); ++i) {
        if (i == damaged) continue;
        EXPECT_EQ(events.payloads[next++], corpus.payloads[i])
            << "pos=" << pos << " pattern=" << int(pattern);
      }
    }
  }
}

}  // namespace
}  // namespace nd
