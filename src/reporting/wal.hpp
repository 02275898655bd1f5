// The one CRC-guarded record layer. Every report here travels and rests
// as the same record,
//
//   magic (u32) | payload length (u32) | CRC32 of payload (u32) | payload
//
// big-endian, under one magic per use: 'NDFR' for a wire frame and for a
// device spool record (record_codec.hpp, spool.hpp: the spool record *is*
// the wire frame, so draining is a plain resend), 'NDJL' for a collector
// journal record (net/journal.hpp). This module is the only code that
// knows that layout and how it reaches disk:
//
//   * header / append: encode one record;
//   * verify: check the record at the front of a buffer (the collector's
//     stream parser per frame, unframe() on a whole buffer);
//   * scan: recover a byte range that may end (or be damaged) anywhere.
//     A record is surfaced only when its magic, length and CRC all check
//     out; anything else (a torn tail from a crash mid-write, a flipped
//     byte, interleaved garbage) is skipped by resyncing one byte at a
//     time to the next plausible record start. Recovery therefore never
//     crashes, never invents a record, and never yields one twice (the
//     fuzz tables in tests/durability/ hold this over every truncation
//     prefix and byte flip);
//   * Writer: the append-only file both durable stores write through,
//     with their fault sites and group commit.
//
// One payload bound, kMaxPayloadBytes, holds for every record: a length
// field above it is damage, never an allocation to make. A device cannot
// send a frame above it either: ResilientChannel refuses a per-interval
// budget above it, and so does `ndtm measure --net-budget`.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"

namespace nd::reporting::wal {

/// magic + length + CRC32, exactly reporting::kFrameHeaderBytes.
inline constexpr std::size_t kHeaderBytes = 12;
/// The largest payload any record may carry (64 MiB).
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;

/// A record file that cannot be opened.
class WalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The header of a record whose payload is `head` followed by `body`.
/// The caller keeps the payload within kMaxPayloadBytes.
[[nodiscard]] std::array<std::uint8_t, kHeaderBytes> header(
    std::uint32_t magic, std::span<const std::uint8_t> head,
    std::span<const std::uint8_t> body = {});

/// Append one whole record (header, then `payload`) to `out`.
void append(std::vector<std::uint8_t>& out, std::uint32_t magic,
            std::span<const std::uint8_t> payload);

/// How the bytes at the front of a buffer relate to one record.
enum class Check : std::uint8_t {
  kRecord,  // magic, length and CRC verified
  kShort,   // a plausible record prefix: more bytes could complete it
  kBad,     // wrong magic, a length above the bound, or a CRC mismatch
};

struct Verified {
  Check check{Check::kShort};
  /// The payload (a view into the checked buffer); empty unless kRecord.
  std::span<const std::uint8_t> payload{};
  /// Bytes the record spans, header included.
  [[nodiscard]] std::size_t size() const {
    return kHeaderBytes + payload.size();
  }
};

/// Check the record under `magic` at the front of `bytes`.
[[nodiscard]] Verified verify(std::span<const std::uint8_t> bytes,
                              std::uint32_t magic);

struct ScanStats {
  /// Records whose magic, length and CRC all verified (sink was called).
  std::uint64_t records{0};
  /// Positions that looked like a record start (magic matched) but were
  /// torn or corrupt: truncated mid-payload, implausible length, or a
  /// CRC mismatch.
  std::uint64_t torn{0};
  /// Bytes passed over while resyncing to the next record start.
  std::uint64_t skipped_bytes{0};
};

/// Walk `bytes` recovering every intact record with the given magic;
/// `sink` receives each whole record, header included (a view into
/// `bytes`), in file order.
ScanStats scan(std::span<const std::uint8_t> bytes, std::uint32_t magic,
               const std::function<void(std::span<const std::uint8_t>)>& sink);

/// scan() over `bytes`, the next stretch of a longer stream: every
/// decision is the one scan() makes over the whole stream, but a record
/// start that `bytes` ends inside (a header or payload cut short) is
/// left unconsumed unless `at_end` says the stream ends here. Adds to
/// `stats` and returns how many leading bytes were consumed; the caller
/// keeps the rest and calls again with more bytes behind it.
std::size_t scan_some(
    std::span<const std::uint8_t> bytes, std::uint32_t magic, bool at_end,
    ScanStats& stats,
    const std::function<void(std::span<const std::uint8_t>)>& sink);

struct WriterConfig {
  /// Fault-site prefix: every append consults "<store>.disk_full",
  /// "<store>.torn_record" and "<store>.short_write" in that order
  /// (robustness/fault.hpp lists the sites). A disk_full firing ends
  /// the append before the other two are consulted; a torn record may
  /// also land in 1-byte writes.
  std::string store;
  /// Group commit: fsync once every this many appends; 0 never fsyncs
  /// and 1 fsyncs each append. sync(), open() and close() flush a
  /// partial batch, so an orderly shutdown never widens the crash
  /// window; a power cut can lose at most the last fsync_every - 1
  /// records.
  std::uint32_t fsync_every{1};
  /// Fault hook for the three sites above. Not owned.
  robustness::FaultInjector* faults{nullptr};
  /// Counts every fsync issued. Not owned; null counts nothing.
  telemetry::Counter* fsync_counter{nullptr};
};

struct WriterStats {
  /// Records that landed whole.
  std::uint64_t appended{0};
  /// Appends that wrote nothing or stopped early: the disk_full fault, a
  /// write error, a payload above the bound, or no open file.
  std::uint64_t write_errors{0};
  /// Appends deliberately cut mid-record by the torn_record fault.
  std::uint64_t torn_writes{0};
  /// Appends landed in 1-byte writes by the short_write fault (benign).
  std::uint64_t short_writes{0};
  /// fsync() calls issued.
  std::uint64_t fsyncs{0};
};

/// The append-only record file a durable store writes through. Append
/// errors are counted, never thrown: a store on a sick disk keeps
/// working, it only loses crash-durability for the affected records.
class Writer {
 public:
  explicit Writer(WriterConfig config);
  /// Flushes a partial batch and closes the file.
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Close the current file (flushing a partial batch), then open `path`
  /// for appending (O_APPEND | O_CLOEXEC, created when missing). Throws
  /// WalError when it cannot; every append then fails until the next
  /// successful open().
  void open(const std::string& path);
  /// Flush a partial batch and close the file (no-op when none is open).
  void close();

  enum class Outcome : std::uint8_t { kWhole, kTorn, kFailed };
  struct Written {
    Outcome outcome{Outcome::kFailed};
    /// Bytes that reached the file (a torn or failed record leaves a
    /// prefix).
    std::size_t bytes{0};
  };

  /// Write one record exactly as given, header included (the spool
  /// writes its frames as they go on the wire).
  Written write(std::span<const std::uint8_t> record);
  /// Write one record whose payload is `head` followed by `body`,
  /// copying each once into a scratch buffer the writer reuses.
  Written append(std::uint32_t magic, std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> body = {});

  /// Flush a partial group-commit batch to disk now (no-op when nothing
  /// is pending or fsync_every is 0).
  void sync();

  [[nodiscard]] const WriterStats& stats() const { return stats_; }

 private:
  WriterConfig config_;
  /// "<store>.disk_full", "<store>.torn_record", "<store>.short_write".
  std::array<std::string, 3> sites_;
  int fd_{-1};
  /// Appends since the last fsync.
  std::uint32_t unsynced_{0};
  WriterStats stats_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace nd::reporting::wal
