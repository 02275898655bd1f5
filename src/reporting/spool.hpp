// SpoolWal: the device-side durable store-and-forward log.
//
// The paper's reports feed *accounting* — a lost interval is lost
// revenue — yet a device whose ResilientChannel exhausts its retry
// budget used to abandon the report. The spool turns that loss into a
// wait: every framed NDFR report is appended to a CRC-guarded
// write-ahead log on disk *before* its first send attempt, and the
// channel drains the log oldest-first whenever the wire is up. A
// collector outage longer than the retry budget now costs only
// latency; a device crash costs nothing the WAL already holds.
//
// On-disk layout: a spool directory of append-only segment files,
//
//   wal-000001.seg        closed segments (finalized by rename)
//   wal-000002.seg.open   the active segment being appended to
//
// each a raw stream of NDFR frames (magic | length | CRC32 | payload —
// the wal record of reporting/wal.hpp: the record *is* the wire frame,
// so draining is a plain resend). Each segment is written through one
// wal::Writer, the same append writer the collector's journal uses.
// Rotation finalizes the active segment with an atomic rename, the
// same tmp+rename discipline as checkpoint files; appends fsync once
// every fsync_every records (the measure path appends once per interval
// close). Recovery scans every segment with wal::scan and keeps each
// intact frame's bytes as they were read: a torn tail from a crash
// mid-write, a flipped byte, or a truncated file costs exactly the
// damaged record — intact neighbors survive, duplicates are the
// collector's first-copy-wins dedup's business.
//
// Delivery tracking is deliberately conservative. Frames are never
// deleted on send: a TCP-level success does not prove the collector
// journaled the frame (it may be killed with the bytes still in a
// socket buffer). Instead a watermark separates sent from pending;
// any transport failure rewinds it to zero, so the next connection
// replays the whole log and the collector dedups. The log is bounded
// by max_total_bytes: over budget, already-sent frames are evicted
// oldest-first, then the incoming report sheds its smallest flows
// (reporting::fit_to_budget, the channel's largest-first-keep policy);
// only a
// report that cannot fit at all is dropped — and counted, never
// silent (nd_spool_dropped_total is the zero-loss acceptance gauge).
//
// Fault sites (robustness/fault.hpp), consulted per append by the
// wal::Writer in this order (a disk_full firing skips the other two):
//   spool.disk_full    the append writes nothing (ENOSPC model)
//   spool.torn_record  the record is cut mid-write (crash model)
//   spool.short_write  the record lands whole but in 1-byte writes
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/device.hpp"
#include "packet/flow_key.hpp"
#include "reporting/wal.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::reporting {

class SpoolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SpoolWalConfig {
  /// Spool directory; created (one level) when missing.
  std::string directory;
  /// Rotate the active segment once it exceeds this many bytes.
  std::uint64_t max_segment_bytes{1ULL << 20};
  /// Total on-disk budget across all segments. Over budget the spool
  /// evicts already-sent frames oldest-first, then sheds the incoming
  /// report's smallest flows to fit.
  std::uint64_t max_total_bytes{1ULL << 26};
  /// Group commit: fsync once every this many appends (1, the default,
  /// fsyncs each interval close on the measure path; 0 never fsyncs).
  /// sync() and the destructor flush a partial batch, and rotation
  /// flushes before the segment is finalized, so an orderly shutdown
  /// never widens the crash window; a power cut can lose at most the
  /// last fsync_every - 1 records — each still held in memory and
  /// re-sent on drain, so only a power cut *and* delivery failure
  /// together lose data.
  std::uint32_t fsync_every{1};
  /// Fault hook for the spool.* sites above. Not owned.
  robustness::FaultInjector* faults{nullptr};
  /// Optional telemetry registry (not owned).
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional trace recorder (not owned): a recovery instant at open,
  /// a span per append.
  telemetry::TraceRecorder* trace{nullptr};
  /// Device id stamped into trace events (-1 = none).
  std::int64_t trace_device{-1};
};

struct SpoolWalStats {
  /// Frames appended this run.
  std::uint64_t appended{0};
  /// Intact frames recovered from disk at open.
  std::uint64_t recovered{0};
  /// Damaged records skipped during recovery (torn tails, bad CRC,
  /// frames whose payload failed the report codec).
  std::uint64_t torn_records{0};
  /// Frames confirmed written to the wire (watermark advances).
  std::uint64_t acked{0};
  /// Watermark resets after a transport failure (full replay follows).
  std::uint64_t rewinds{0};
  /// Already-sent frames evicted for the disk budget.
  std::uint64_t evicted{0};
  /// Flow records shed from incoming reports to fit the budget.
  std::uint64_t records_shed{0};
  /// Reports that could not be retained at all — the only loss the
  /// spool can cause, and the soak's must-be-zero counter.
  std::uint64_t dropped{0};
  std::uint64_t segments_created{0};
  std::uint64_t segments_removed{0};
  std::uint64_t bytes_on_disk{0};
};

class SpoolWal {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct AppendResult {
    /// Index of the retained frame (frame(index)); npos when dropped.
    std::size_t index{npos};
    /// Flows shed from this report to fit the disk budget.
    std::uint64_t records_shed{0};
    /// False when the frame is only in memory (write error): it still
    /// drains, but a crash before delivery loses it.
    bool durable{false};
  };

  /// Opens the directory, recovers every intact frame from existing
  /// segments (all recovered frames start unsent), and opens the
  /// active segment. Throws SpoolError when the directory cannot be
  /// created or the active segment cannot be opened.
  explicit SpoolWal(const SpoolWalConfig& config);

  SpoolWal(const SpoolWal&) = delete;
  SpoolWal& operator=(const SpoolWal&) = delete;

  /// Shed-to-fit and append one report as a ready-to-send NDFR frame,
  /// before any send attempt. `report` should already be sorted
  /// largest-first (ResilientChannel::send does this) so shedding
  /// keeps the heavy-hitter prefix; it is taken by value and shed in
  /// place, so a caller done with it moves it in.
  AppendResult append(core::Report report,
                      packet::FlowKeyKind kind,
                      std::string_view metrics_json);

  /// Frames currently retained; indices [watermark(), frame_count())
  /// are pending (not yet confirmed on the wire).
  [[nodiscard]] std::size_t frame_count() const { return frames_.size(); }
  [[nodiscard]] std::size_t watermark() const { return watermark_; }
  [[nodiscard]] std::size_t backlog() const {
    return frames_.size() - watermark_;
  }
  [[nodiscard]] std::span<const std::uint8_t> frame(
      std::size_t index) const {
    return frames_[index].bytes;
  }
  /// Interval the frame at `index` carries (recovered or appended).
  [[nodiscard]] common::IntervalIndex frame_interval(
      std::size_t index) const {
    return frames_[index].interval;
  }

  /// The frame at watermark() was written to the wire whole.
  void ack();
  /// The connection died: every previously-sent frame may have been in
  /// flight or unjournaled at the collector, so mark the whole log
  /// pending again. The collector's dedup absorbs the replay.
  void rewind();

  /// Flush a partial group-commit batch to disk now (no-op when
  /// nothing is pending or fsync_every is 0).
  void sync() { writer_.sync(); }

  /// True while pending frames exist — the /healthz degraded signal
  /// (a draining device is live but its reports are not yet collected;
  /// the flag clears only when the backlog empties).
  [[nodiscard]] bool draining() const { return backlog() > 0; }

  [[nodiscard]] const SpoolWalStats& stats() const { return stats_; }
  /// The segment writer's counts across every segment this run: write
  /// errors (the frame stays deliverable in memory but is not durable),
  /// torn and short writes, fsyncs.
  [[nodiscard]] const wal::WriterStats& write_stats() const {
    return writer_.stats();
  }
  [[nodiscard]] const std::string& directory() const {
    return config_.directory;
  }

 private:
  struct Frame {
    std::vector<std::uint8_t> bytes;
    common::IntervalIndex interval{0};
    std::uint64_t segment{0};
  };
  struct Segment {
    std::string path;
    std::uint64_t bytes{0};
    /// Frames from this segment still held in memory.
    std::size_t live_frames{0};
    bool open{false};
  };

  void recover();
  void open_active_segment(std::uint64_t seq);
  void rotate_active_segment();
  void evict_front();
  void update_gauges();

  SpoolWalConfig config_;
  std::deque<Frame> frames_;
  std::size_t watermark_{0};
  std::map<std::uint64_t, Segment> segments_;
  std::uint64_t active_seq_{0};
  /// Writes the active segment; reopened at each rotation.
  wal::Writer writer_;
  SpoolWalStats stats_;

  telemetry::Counter* tm_appended_{nullptr};
  telemetry::Counter* tm_recovered_{nullptr};
  telemetry::Counter* tm_torn_{nullptr};
  telemetry::Counter* tm_dropped_{nullptr};
  telemetry::Counter* tm_shed_{nullptr};
  telemetry::Counter* tm_evicted_{nullptr};
  telemetry::Counter* tm_write_errors_{nullptr};
  telemetry::Gauge* tm_backlog_{nullptr};
  telemetry::Gauge* tm_disk_bytes_{nullptr};
};

}  // namespace nd::reporting
