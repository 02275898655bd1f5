#include "net/journal.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/byte_order.hpp"
#include "reporting/wal.hpp"

namespace nd::net {

namespace {

constexpr std::uint8_t kTypeReport = 0;
constexpr std::uint8_t kTypeBye = 1;

std::array<std::uint8_t, kJournalPrefixBytes> prefix(std::uint8_t type,
                                                    std::uint32_t device_id,
                                                    std::uint32_t epoch) {
  std::array<std::uint8_t, kJournalPrefixBytes> out{type};
  common::store_be32(out.data() + 1, device_id);
  common::store_be32(out.data() + 5, epoch);
  return out;
}

/// The journal payload: prefix, then `body`.
std::vector<std::uint8_t> journal_payload(std::uint8_t type,
                                          std::uint32_t device_id,
                                          std::uint32_t epoch,
                                          std::span<const std::uint8_t> body) {
  const auto head = prefix(type, device_id, epoch);
  std::vector<std::uint8_t> out(head.size() + body.size());
  std::copy(body.begin(), body.end(),
            std::copy(head.begin(), head.end(), out.begin()));
  return out;
}

}  // namespace

std::array<std::uint8_t, kJournalPrefixBytes> journal_report_prefix(
    std::uint32_t device_id, std::uint32_t epoch) {
  return prefix(kTypeReport, device_id, epoch);
}

std::vector<std::uint8_t> encode_journal_report(
    std::uint32_t device_id, std::uint32_t epoch,
    std::span<const std::uint8_t> payload) {
  return journal_payload(kTypeReport, device_id, epoch, payload);
}

std::vector<std::uint8_t> encode_journal_bye(std::uint32_t device_id,
                                             std::uint32_t epoch,
                                             std::uint32_t intervals) {
  std::array<std::uint8_t, 4> count;
  common::store_be32(count.data(), intervals);
  return journal_payload(kTypeBye, device_id, epoch, count);
}

namespace {

/// Hands one verified journal record to `events`, or counts it torn.
void replay_record(std::span<const std::uint8_t> record,
                   JournalReplayEvents& events, JournalReplayStats& stats) {
  const std::span<const std::uint8_t> payload =
      record.subspan(reporting::wal::kHeaderBytes);
  if (payload.size() < kJournalPrefixBytes) {
    ++stats.torn;
    return;
  }
  const std::uint8_t type = payload[0];
  const std::uint32_t device_id = common::load_be32(&payload[1]);
  const std::uint32_t epoch = common::load_be32(&payload[5]);
  const std::span<const std::uint8_t> body =
      payload.subspan(kJournalPrefixBytes);
  if (type == kTypeReport) {
    ++stats.records;
    events.on_report(device_id, epoch, body);
  } else if (type == kTypeBye && body.size() == 4) {
    ++stats.records;
    events.on_bye(device_id, epoch, common::load_be32(body.data()));
  } else {
    // CRC-valid bytes that are not a journal record we know: damage
    // written before the CRC was computed, or a future type.
    // Recover-or-reject — skip it, keep replaying.
    ++stats.torn;
  }
}

}  // namespace

JournalReplayStats replay_journal(std::span<const std::uint8_t> bytes,
                                  JournalReplayEvents& events) {
  JournalReplayStats stats;
  const reporting::wal::ScanStats scanned = reporting::wal::scan(
      bytes, kJournalMagic, [&](std::span<const std::uint8_t> record) {
        replay_record(record, events, stats);
      });
  stats.torn += scanned.torn;
  return stats;
}

JournalReplayStats replay_journal_file(const std::string& path,
                                       JournalReplayEvents& events,
                                       std::size_t block_bytes) {
  JournalReplayStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // first run: nothing to replay
  reporting::wal::ScanStats scanned;
  const auto sink = [&](std::span<const std::uint8_t> record) {
    replay_record(record, events, stats);
  };
  // buffer[0, held) is the unscanned rest of the file read so far: at
  // most a record start the last block ended inside, plus one block.
  std::vector<std::uint8_t> buffer;
  std::size_t held = 0;
  for (bool at_end = false; !at_end;) {
    buffer.resize(held + block_bytes);
    in.read(reinterpret_cast<char*>(buffer.data() + held),
            static_cast<std::streamsize>(block_bytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    at_end = got < block_bytes;
    held += got;
    const std::size_t consumed = reporting::wal::scan_some(
        {buffer.data(), held}, kJournalMagic, at_end, scanned, sink);
    std::memmove(buffer.data(), buffer.data() + consumed, held - consumed);
    held -= consumed;
  }
  stats.torn += scanned.torn;
  return stats;
}

}  // namespace nd::net
