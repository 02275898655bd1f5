#include "net/journal.hpp"

#include <algorithm>

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

JournalReplayStats replay_journal(std::span<const std::uint8_t> bytes,
                                  JournalReplayEvents& events) {
  JournalReplayStats stats;
  const reporting::wal::ScanStats scanned = reporting::wal::scan(
      bytes, kJournalMagic, [&](std::span<const std::uint8_t> record) {
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
          // CRC-valid bytes that are not a journal record we know:
          // damage written before the CRC was computed, or a future
          // type. Recover-or-reject — skip it, keep replaying.
          ++stats.torn;
        }
      });
  stats.torn += scanned.torn;
  return stats;
}

}  // namespace nd::net
