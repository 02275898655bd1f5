// The one record layer (reporting/wal.hpp): record verification, and
// the append writer both durable stores write through: group commit
// (fsync once every N appends, 0 never), the three per-store fault
// sites in their fixed order, and open failures. The spool and journal
// suites each run one case of it through their own store.
#include "reporting/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"

namespace nd::reporting::wal {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x4E445854;  // "NDXT"

std::string fresh_path(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / ("nd_wal_" + name);
  fs::remove_all(path);
  return path.string();
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Every intact record's payload in `path`, in file order.
std::vector<std::vector<std::uint8_t>> scan_payloads(const std::string& path) {
  std::vector<std::vector<std::uint8_t>> payloads;
  (void)scan(read_file_bytes(path), kMagic,
             [&](std::span<const std::uint8_t> record) {
               const auto payload = record.subspan(kHeaderBytes);
               payloads.emplace_back(payload.begin(), payload.end());
             });
  return payloads;
}

std::vector<std::uint8_t> payload_of(std::uint8_t tag) {
  return {tag, 1, 2, 3, 4, 5};
}

TEST(WalRecord, VerifySeparatesWholeShortAndBadRecords) {
  const std::vector<std::uint8_t> payload = payload_of(9);
  std::vector<std::uint8_t> record;
  append(record, kMagic, payload);
  ASSERT_EQ(record.size(), kHeaderBytes + payload.size());

  const Verified whole = verify(record, kMagic);
  ASSERT_EQ(whole.check, Check::kRecord);
  EXPECT_EQ(whole.size(), record.size());
  EXPECT_TRUE(std::ranges::equal(whole.payload, payload));

  // Every proper prefix could still be completed.
  for (std::size_t n = 0; n < record.size(); ++n) {
    EXPECT_EQ(verify(std::span(record).first(n), kMagic).check,
              Check::kShort)
        << n;
  }
  EXPECT_EQ(verify(record, kMagic + 1).check, Check::kBad);
  std::vector<std::uint8_t> flipped = record;
  flipped.back() ^= 0x01;
  EXPECT_EQ(verify(flipped, kMagic).check, Check::kBad);
  // A length above the one bound is damage, never a record to wait for.
  std::vector<std::uint8_t> huge = record;
  const auto length = static_cast<std::uint32_t>(kMaxPayloadBytes + 1);
  for (std::size_t i = 0; i < 4; ++i) {
    huge[4 + i] = static_cast<std::uint8_t>(length >> (24 - 8 * i));
  }
  EXPECT_EQ(verify(huge, kMagic).check, Check::kBad);
}

TEST(WalRecord, HeaderOverHeadAndBodyEqualsOneContiguousPayload) {
  const std::vector<std::uint8_t> head = {7, 7, 7};
  const std::vector<std::uint8_t> body = payload_of(4);
  std::vector<std::uint8_t> joined = head;
  joined.insert(joined.end(), body.begin(), body.end());
  EXPECT_EQ(header(kMagic, head, body), header(kMagic, joined));
  std::vector<std::uint8_t> record;
  append(record, kMagic, joined);
  const auto h = header(kMagic, joined);
  EXPECT_TRUE(std::ranges::equal(std::span(record).first(kHeaderBytes), h));
  EXPECT_EQ(common::crc32(joined),
            common::crc32(body, common::crc32(head)));
}

TEST(WalWriter, GroupCommitBatchesFsyncsAndFlushesOnSyncAndClose) {
  const std::string path = fresh_path("group_commit");
  telemetry::MetricsRegistry registry;
  telemetry::Counter& fsyncs = registry.counter("nd_test_fsync_total");
  {
    Writer writer(
        {.store = "journal", .fsync_every = 3, .fsync_counter = &fsyncs});
    writer.open(path);
    for (std::uint8_t i = 0; i < 7; ++i) {
      EXPECT_EQ(writer.append(kMagic, payload_of(i)).outcome,
                Writer::Outcome::kWhole);
    }
    // 7 appends / batch of 3 = 2 full batches; 1 record pending.
    EXPECT_EQ(writer.stats().appended, 7u);
    EXPECT_EQ(writer.stats().fsyncs, 2u);
    writer.sync();
    EXPECT_EQ(writer.stats().fsyncs, 3u);
    writer.sync();  // nothing pending: no extra fsync
    EXPECT_EQ(writer.stats().fsyncs, 3u);
    EXPECT_EQ(fsyncs.value(), 3u);
    writer.append(kMagic, payload_of(7));
    // Closing (here, the destructor) flushes the final partial batch.
  }
  EXPECT_EQ(fsyncs.value(), 4u);
  const auto payloads = scan_payloads(path);
  ASSERT_EQ(payloads.size(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) EXPECT_EQ(payloads[i], payload_of(i));
}

TEST(WalWriter, FsyncEveryOneSyncsEachAppendAndZeroNever) {
  for (const std::uint32_t every : {1u, 0u}) {
    Writer writer({.store = "spool", .fsync_every = every});
    writer.open(fresh_path("every_" + std::to_string(every)));
    for (std::uint8_t i = 0; i < 4; ++i) {
      writer.append(kMagic, payload_of(i));
    }
    writer.sync();
    writer.close();
    EXPECT_EQ(writer.stats().appended, 4u);
    EXPECT_EQ(writer.stats().fsyncs, every == 1 ? 4u : 0u);
  }
  EXPECT_EQ(WriterConfig{}.fsync_every, 1u);
}

TEST(WalWriter, TornFaultCostsOnlyTheTornRecord) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kTruncate;
  spec.schedule = {0};
  robustness::FaultInjector faults(
      robustness::FaultPlan(5).inject("journal.torn_record", spec));
  const std::string path = fresh_path("torn");
  {
    Writer writer({.store = "journal", .faults = &faults});
    writer.open(path);
    EXPECT_EQ(writer.append(kMagic, payload_of(1)).outcome,
              Writer::Outcome::kTorn);
    EXPECT_EQ(writer.stats().torn_writes, 1u);
    EXPECT_EQ(writer.append(kMagic, payload_of(2)).outcome,
              Writer::Outcome::kWhole);
    EXPECT_EQ(writer.stats().appended, 1u);
  }
  const auto payloads = scan_payloads(path);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], payload_of(2));
}

TEST(WalWriter, FaultSitesAreConsultedInOrderAndDiskFullEndsTheAppend) {
  // Appends consult disk_full, torn_record, short_write in that order;
  // a disk_full firing ends the append before the other two are asked.
  robustness::FaultSpec always;
  always.kind = robustness::FaultKind::kDrop;
  always.schedule = {0, 1, 2};
  robustness::FaultSpec from_one = always;
  from_one.schedule = {1, 2};
  robustness::FaultSpec from_two = always;
  from_two.schedule = {2};
  robustness::FaultInjector faults(robustness::FaultPlan(3)
                                       .inject("spool.disk_full", from_two)
                                       .inject("spool.torn_record", from_one)
                                       .inject("spool.short_write", always));
  const std::string path = fresh_path("fault_order");
  Writer writer({.store = "spool", .faults = &faults});
  writer.open(path);
  // Append 0: only short_write is scheduled — whole, in 1-byte writes.
  const Writer::Written first = writer.append(kMagic, payload_of(0));
  EXPECT_EQ(first.outcome, Writer::Outcome::kWhole);
  EXPECT_EQ(first.bytes, kHeaderBytes + payload_of(0).size());
  // Append 1: the record is torn, and what lands goes in 1-byte writes.
  EXPECT_EQ(writer.append(kMagic, payload_of(1)).outcome,
            Writer::Outcome::kTorn);
  // Append 2: disk_full fires and writes nothing.
  const Writer::Written third = writer.append(kMagic, payload_of(2));
  EXPECT_EQ(third.outcome, Writer::Outcome::kFailed);
  EXPECT_EQ(third.bytes, 0u);
  EXPECT_EQ(writer.stats().short_writes, 2u);
  EXPECT_EQ(writer.stats().torn_writes, 1u);
  EXPECT_EQ(writer.stats().write_errors, 1u);
  EXPECT_EQ(faults.occurrences("spool.disk_full"), 3u);
  EXPECT_EQ(faults.occurrences("spool.torn_record"), 2u);
  EXPECT_EQ(faults.occurrences("spool.short_write"), 2u);
  writer.close();
  const auto payloads = scan_payloads(path);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], payload_of(0));
}

TEST(WalWriter, OpenFailureThrowsAndLeavesAppendsFailing) {
  Writer writer({.store = "journal"});
  EXPECT_THROW(writer.open(fresh_path("no_such_dir") + "/journal.wal"),
               WalError);
  EXPECT_EQ(writer.append(kMagic, payload_of(0)).outcome,
            Writer::Outcome::kFailed);
  EXPECT_EQ(writer.stats().write_errors, 1u);
}

}  // namespace
}  // namespace nd::reporting::wal
