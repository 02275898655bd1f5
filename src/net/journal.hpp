// Collector crash-recovery journal.
//
// A kill -9'd collector used to lose every interval it had accepted but
// not yet exported. The journal closes that window: each accepted
// (device, epoch, interval) report frame — and each bye — is appended
// to an on-disk log *before* it enters the merge state, so a restarted
// `ndtm collect --journal` replays the log through the same
// first-copy-wins dedup and resumes with a fleet merge bit-identical to
// an uninterrupted run (devices replaying their spools on reconnect
// only produce duplicates the dedup already absorbs).
//
// On disk the journal is a stream of wal records (reporting/wal.hpp)
// under its own magic 'NDJL', written through the same wal::Writer as
// the device spool (net::Collector owns it), each payload:
//
//   type (u8: 0 = report, 1 = bye) | device id (u32) | epoch (u32) | body
//
// where a report's body is the raw NDFR payload bytes exactly as the
// frame carried them (report codec v3, metrics trailer included) and a
// bye's body is the intervals count (u32). Big-endian throughout. A
// journal record obeys the same 64 MiB payload bound as a frame, so a
// report within kJournalPrefixBytes of that bound is merged but cannot
// be journaled: its append counts as a journal write error.
// Replay is recover-or-reject: wal::scan drops torn or corrupt records
// and resyncs, a CRC-valid record with a malformed journal payload is
// counted and skipped, and the report bytes themselves are validated by
// the collector's usual decode path — damage costs exactly the damaged
// record, never the journal.
//
// Fault sites (robustness/fault.hpp), consulted per append by the
// wal::Writer in this order (a disk_full firing skips the other two):
//   journal.disk_full    the append writes nothing
//   journal.torn_record  an append is cut mid-record (crash model);
//                        later appends still land and replay resyncs
//   journal.short_write  the record lands whole but in 1-byte writes
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nd::net {

inline constexpr std::uint32_t kJournalMagic = 0x4E444A4C;  // "NDJL"
/// type + device + epoch, before the per-type body.
inline constexpr std::size_t kJournalPrefixBytes = 9;

/// The prefix of a report's journal payload; the NDFR frame payload
/// (the encoded report) follows it verbatim, so the collector hands
/// both to wal::Writer::append and copies the report once.
[[nodiscard]] std::array<std::uint8_t, kJournalPrefixBytes>
journal_report_prefix(std::uint32_t device_id, std::uint32_t epoch);

/// Journal payload for one accepted report frame, prefix and `payload`
/// in one buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_report(
    std::uint32_t device_id, std::uint32_t epoch,
    std::span<const std::uint8_t> payload);

/// Journal payload for a device's bye.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_bye(
    std::uint32_t device_id, std::uint32_t epoch, std::uint32_t intervals);

/// Replay sink. on_report hands over the stored NDFR payload verbatim;
/// decoding (and deduplicating) it is the caller's business, so replay
/// flows through exactly the ingestion path live frames take.
class JournalReplayEvents {
 public:
  virtual ~JournalReplayEvents() = default;
  virtual void on_report(std::uint32_t device_id, std::uint32_t epoch,
                         std::span<const std::uint8_t> payload) = 0;
  virtual void on_bye(std::uint32_t device_id, std::uint32_t epoch,
                      std::uint32_t intervals) = 0;
};

struct JournalReplayStats {
  /// Well-formed journal records handed to the sink.
  std::uint64_t records{0};
  /// Damaged records skipped: torn/corrupt at the wal layer plus
  /// CRC-valid records whose journal payload was malformed.
  std::uint64_t torn{0};
};

/// Scan a journal byte range and replay every intact record, in file
/// order. Free function so the fuzz tables can drive it without a
/// Collector.
JournalReplayStats replay_journal(std::span<const std::uint8_t> bytes,
                                  JournalReplayEvents& events);

/// The file replay_journal_file reads at a time.
inline constexpr std::size_t kJournalReplayBlockBytes = std::size_t{1} << 20;

/// replay_journal() over the file at `path` (nothing when there is
/// none), read in blocks of `block_bytes` (at least 1): the same
/// records, events and counts, but a replay holds one block plus the
/// record it is completing (at most one 64 MiB payload), not the whole
/// journal.
JournalReplayStats replay_journal_file(
    const std::string& path, JournalReplayEvents& events,
    std::size_t block_bytes = kJournalReplayBlockBytes);

}  // namespace nd::net
