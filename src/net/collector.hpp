// The collector daemon: the management station end of the paper's
// router -> collection link (Section 5.2), as a real TCP server.
//
// One poll()-driven thread owns a loopback listener and every accepted
// device connection. Each connection runs a FrameStreamParser, so a
// corrupted frame costs one resync — never the stream, never the
// process. Per-device state is keyed by the hello frame's device id:
// reconnect epochs are tracked (a device that dials again after a
// mid-interval disconnect bumps its epoch and re-sends the interval it
// lost), duplicate interval reports deduplicate first-copy-wins, and a
// bye frame marks the device's capture complete.
//
// The open window holds bytes. Ingest checks each report payload the
// way reporting::decode_full does, and also that every flow record is
// canonical (reporting::check_flow_records: the exact bytes encode()
// writes for its key), without building a single FlowKey. A payload
// that fails either check is a decode error. The window keeps the
// payload's body (header, flow and shard records, one copy off the
// parser; the metrics trailer feeds the FleetAggregator and is
// dropped), so a slow member's backlog is bounded by its wire size.
//
// The fleet merge splices those bytes (reporting::splice): a new header
// with the sums and the maximum shard threshold, a k-way merge of the
// members' flow records by estimate with ties in ascending device-id
// order, then the members' shard records in that order. The result is
// byte for byte what encode() writes for core::merge_member_reports
// over the decoded members, sorted largest-first: the exact function
// ShardedDevice::end_interval merges with. That shared definition is
// the collapse-the-distributed-system guarantee the loopback suite
// enforces: M devices over TCP merge bit-identically to one M-sharded
// device in process. One member whose records are largest-first, as
// every device ships them, is one copy.
//
// The merge streams. Once expected_devices distinct ids are known (by
// hello or by journal replay), an interval is complete when every known
// device has reported it or has said bye. A watermark merges complete
// intervals in ascending order, hands each merge to
// CollectorConfig::on_interval and drops the member copies, so the
// collector holds only the open window, not the whole run. Without a
// sink it keeps the member bytes, and merged_reports() decodes and
// merges them on demand. A copy that arrives for an interval already
// merged is never merged again: it is a duplicate when its device had
// delivered the interval, a late report otherwise. At bye, the intervals the bye counts but that never arrived
// are recorded as gaps (gaps(), stats().missing_intervals).
//
// Lifecycle: construct (binds and listens; port() reports the bound
// port so tests and the CLI can use an ephemeral one), then either
// run() on the current thread or start()/stop() with a background
// thread. run() returns true when every expected device said bye,
// false on stop() or timeout — the CLI maps that to its
// transport-failure exit code. Intervals still open when run() returns
// are merged by deliver_open_intervals() (to the sink) or
// merged_reports().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "net/frame_stream.hpp"
#include "net/journal.hpp"
#include "net/socket.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/wal.hpp"
#include "robustness/fault.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::net {

struct CollectorConfig {
  /// Listen port on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back via port()).
  std::uint16_t port{0};
  /// Devices that must say bye before run() declares the collection
  /// complete; at least 1 (the constructor throws std::invalid_argument
  /// on 0).
  std::uint32_t expected_devices{1};
  /// Give up after this long (run() returns false); 0 waits forever.
  std::chrono::milliseconds timeout{0};
  /// Optional telemetry registry (not owned).
  /// When set, each report's v3 metrics trailer is also parsed and
  /// folded into this registry through a FleetAggregator — per-device
  /// `device="<id>"` series plus `device="fleet"` rollups — so one
  /// scrape of the collector shows the whole fleet.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional trace recorder (not owned): frame-decode / dedup / merge
  /// spans, correlated with device-side spans via (device, epoch,
  /// interval) ids.
  telemetry::TraceRecorder* trace{nullptr};
  /// Crash-recovery journal (net/journal.hpp). Non-empty: existing
  /// records are replayed through the normal ingestion path (dedup,
  /// fleet aggregation) before the listener accepts
  /// anything, and every newly accepted first-copy report — and every
  /// bye — is journaled *before* it enters the merge state. A restarted
  /// collector therefore merges bit-identically to one that never died.
  std::string journal_path{};
  /// Group commit: fsync the journal once every this many appends (1,
  /// the default, fsyncs each report; 0 never fsyncs). A crash can lose
  /// at most the last journal_fsync_every - 1 records, which devices
  /// re-send from their spools and first-copy-wins dedup absorbs; the
  /// collector's exit flushes a partial batch.
  std::uint32_t journal_fsync_every{1};
  /// Fairness cap: bytes drained from one connection per poll wake
  /// before yielding to the other connections (a device blasting its
  /// spool backlog must not starve its peers). 0 = unlimited.
  std::size_t max_drain_bytes_per_wake{256 * 1024};
  /// Fault hook for the journal.* sites (net/journal.hpp). Not owned.
  robustness::FaultInjector* faults{nullptr};
  /// Sink for each completed interval's fleet merge, encoded (the
  /// reporting::splice bytes; the view lasts for the call), in ascending
  /// interval order, called without the collector's lock: from the
  /// constructor for intervals journal replay completes, then from the
  /// thread that runs run(). Unset: the member reports are kept for
  /// merged_reports().
  std::function<void(std::span<const std::uint8_t>)> on_interval{};
};

/// Intervals [first, last] that a device's bye counted but whose
/// reports never arrived.
struct IntervalGap {
  std::uint32_t device_id{0};
  common::IntervalIndex first{0};
  common::IntervalIndex last{0};
};

struct CollectorStats {
  std::uint64_t connections_accepted{0};
  std::uint64_t connections_closed{0};
  std::uint64_t hellos{0};
  /// Hellos with epoch > 0: a device resuming after a lost connection.
  std::uint64_t reconnects{0};
  std::uint64_t byes{0};
  std::uint64_t bytes_received{0};
  /// CRC-verified NDFR frames delivered by the stream parsers.
  std::uint64_t frames_received{0};
  std::uint64_t reports_ingested{0};
  /// Re-sent intervals discarded first-copy-wins (the disconnect /
  /// reconnect path re-ships whole intervals; dedup keeps the merge
  /// exactly-once).
  std::uint64_t duplicate_reports{0};
  /// Reports for an interval already merged without that device: too
  /// late to join the merge, so dropped (and not journaled).
  std::uint64_t late_reports{0};
  /// Intervals a device's bye counted that never arrived (see gaps()).
  std::uint64_t missing_intervals{0};
  /// Frames that passed the CRC but whose payload failed the report
  /// codec, and report frames from a connection that never said hello.
  std::uint64_t decode_errors{0};
  /// Stream-parser resyncs past malformed bytes.
  std::uint64_t resyncs{0};
  /// Connections that closed holding an incomplete frame.
  std::uint64_t partial_frames_dropped{0};
  /// Poll wakes where one connection spent its max_drain_bytes_per_wake
  /// budget and yielded its turn (fairness, not failure — anything
  /// still queued is re-served on the next wake).
  std::uint64_t drain_cap_hits{0};
  /// Records appended to the crash-recovery journal this run.
  std::uint64_t journal_records{0};
  /// Records replayed from the journal at startup (reports + byes;
  /// replayed duplicates still count into duplicate_reports).
  std::uint64_t journal_replayed{0};
  /// Damaged journal records skipped during replay.
  std::uint64_t journal_torn_records{0};
  /// Journal appends that failed (write error or injected tear); the
  /// report is still merged, it just loses crash-durability.
  std::uint64_t journal_write_errors{0};
};

class Collector {
 public:
  /// Binds and listens immediately; throws NetError when the port is
  /// taken.
  explicit Collector(const CollectorConfig& config);
  /// stop()s and joins a background thread if one is still running.
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// The actually-bound listen port.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Event loop on the calling thread. Returns true when every
  /// expected device said bye; false on stop() or timeout. Returning
  /// flushes the journal's partial group-commit batch.
  bool run();

  /// run() on a background thread / signal it to exit. wait() joins and
  /// returns run()'s result.
  void start();
  void stop();
  bool wait();

  /// Write end of the self-pipe stop() uses. A signal handler may
  /// ::write one byte to it — that is all stop() does, and it is
  /// async-signal-safe — so SIGINT/SIGTERM can end run() gracefully.
  [[nodiscard]] int stop_fd() const { return stop_writer_.fd(); }

  /// The fleet merge of everything ingested so far, ascending by
  /// interval: the merges already emitted (none when on_interval is set,
  /// since the sink took them), then a merge of each interval still
  /// open, member reports decoded and merged in ascending device-id
  /// order through core::merge_member_reports (flows in member order,
  /// not sorted). Safe to call while the loop runs (snapshot under
  /// lock), but the intended use is after run() returns.
  [[nodiscard]] std::vector<core::Report> merged_reports() const;

  /// Hands each interval still open (a device that never said bye, or a
  /// gap no device filled) to on_interval, merged as it stands, in
  /// ascending order. For after run() returns; the window is left as it
  /// is.
  void deliver_open_intervals() const;

  [[nodiscard]] CollectorStats stats() const;
  /// Every gap recorded so far, in the order the byes arrived.
  [[nodiscard]] std::vector<IntervalGap> gaps() const;
  /// Devices that have said bye.
  [[nodiscard]] std::uint32_t devices_done() const;

  /// Human-readable /statusz body for the HTTP observability plane:
  /// uptime, per-device table (epoch, reports, bye, missing intervals),
  /// aggregate stats.
  [[nodiscard]] std::string status_text() const;

 private:
  struct Connection;
  struct DeviceState;
  class ConnectionEvents;
  class JournalReplay;

  /// Ingest one CRC-verified report payload for `device_id` — the one
  /// path both live frames and journal replay flow through. `journal`
  /// is false during replay (the record is already on disk).
  void ingest_report_payload(std::uint32_t device_id,
                             std::span<const std::uint8_t> payload,
                             bool journal);
  void mark_bye(std::uint32_t device_id, std::uint32_t intervals,
                bool journal);
  /// Append one journal record (payload `head` then `body`) and count
  /// it; true when it landed whole.
  bool append_journal(std::span<const std::uint8_t> head,
                      std::span<const std::uint8_t> body);
  /// Record as gaps the intervals below `intervals` that `device_id`
  /// never delivered.
  void record_gaps_locked(std::uint32_t device_id, const DeviceState& device,
                          common::IntervalIndex intervals);
  [[nodiscard]] bool interval_complete_locked(
      common::IntervalIndex interval) const;
  /// Advance the watermark: merge every complete interval in ascending
  /// order and drop its member copies. Returns the encoded merges for
  /// on_interval (none when no sink is set: the members go to
  /// emitted_).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_complete_locked();
  /// Hand merges from take_complete_locked() to on_interval; called
  /// without the lock.
  void deliver(const std::vector<std::vector<std::uint8_t>>& merged) const;
  /// Every interval still in some device's open window, ascending.
  [[nodiscard]] std::vector<common::IntervalIndex> open_intervals_locked()
      const;
  /// The open-window reports of `interval`, ascending device id.
  [[nodiscard]] std::vector<reporting::SpliceMember> open_members_locked(
      common::IntervalIndex interval) const;
  /// The encoded fleet merge (reporting::splice), timed as fleet.merge.
  [[nodiscard]] std::vector<std::uint8_t> splice_members(
      common::IntervalIndex interval,
      std::span<const reporting::SpliceMember> members) const;
  /// The decoded fleet merge (core::merge_member_reports over each
  /// member's decode), timed as fleet.merge.
  [[nodiscard]] core::Report merge_members(
      common::IntervalIndex interval,
      std::span<const reporting::SpliceMember> members) const;
  void recover_from_journal();

  /// run()'s poll loop.
  bool serve();
  void accept_ready();
  /// Drain one readable connection; returns false when it closed.
  bool service(Connection& conn);
  void close_connection(std::size_t index);
  /// Final sweep at the all-devices-done exit: consume any bytes and
  /// EOFs still queued on surviving connections so stats (partial
  /// frames in particular) don't depend on poll-wake timing.
  void drain_remaining_locked();
  [[nodiscard]] bool all_done_locked() const;
  /// Parse a report's v3 metrics trailer (JSON-lines snapshots) and
  /// fold it into the fleet aggregation; malformed lines count as
  /// decode errors without touching the report itself.
  void ingest_metrics_trailer(std::uint32_t device_id,
                              std::string_view metrics_json);

  CollectorConfig config_;
  Socket listener_;
  std::uint16_t port_{0};
  /// Self-pipe: stop() writes a byte, the poll loop wakes and exits.
  Socket stop_reader_;
  Socket stop_writer_;

  /// One member's report as the wire carried it, metrics trailer cut
  /// off: header, flow records, shard records. It passed
  /// reporting::layout_of and reporting::check_flow_records.
  struct MemberReport {
    std::vector<std::uint8_t> body;
    /// What check_flow_records said: the flow records are largest-first.
    bool largest_first{true};

    [[nodiscard]] reporting::SpliceMember view() const {
      return {body, largest_first};
    }
  };

  struct DeviceState {
    std::uint32_t epoch{0};
    bool bye{false};
    /// First copies ingested, merged or still open.
    std::uint64_t reports_ingested{0};
    /// The open window: first-copy reports of intervals not yet merged.
    std::map<common::IntervalIndex, MemberReport> reports;
    /// One bit per merged interval: this device's report was in it.
    std::vector<bool> merged;
  };

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::uint32_t, DeviceState> devices_;
  /// The watermark: every interval below it has been merged.
  std::uint64_t next_interval_{0};
  /// The flow-key kind of the first report ingested. A report of
  /// another kind counts as a decode error and never enters the merge,
  /// so a merged export encodes every interval, flowless ones included,
  /// under this kind.
  std::optional<packet::FlowKeyKind> key_kind_;
  /// The member reports of each merged interval, kept for
  /// merged_reports() when no on_interval sink is set.
  std::vector<std::pair<common::IntervalIndex, std::vector<MemberReport>>>
      emitted_;
  std::vector<IntervalGap> gaps_;
  /// The journal's append writer (reporting/wal.hpp), when journaling.
  std::optional<reporting::wal::Writer> journal_;
  CollectorStats stats_;
  bool stop_requested_{false};
  std::optional<telemetry::FleetAggregator> aggregator_;
  std::chrono::steady_clock::time_point started_{
      std::chrono::steady_clock::now()};

  std::thread thread_;
  bool thread_result_{false};

  telemetry::Counter* tm_connections_{nullptr};
  telemetry::Counter* tm_frames_{nullptr};
  telemetry::Counter* tm_reports_{nullptr};
  telemetry::Counter* tm_duplicates_{nullptr};
  telemetry::Counter* tm_late_{nullptr};
  telemetry::Counter* tm_missing_{nullptr};
  telemetry::Counter* tm_decode_errors_{nullptr};
  telemetry::Counter* tm_resyncs_{nullptr};
  telemetry::Counter* tm_reconnects_{nullptr};
  telemetry::Histogram* tm_merge_ns_{nullptr};
  telemetry::Counter* tm_journal_records_{nullptr};
  telemetry::Counter* tm_journal_replayed_{nullptr};
  telemetry::Counter* tm_journal_torn_{nullptr};
  telemetry::Counter* tm_journal_write_errors_{nullptr};
};

}  // namespace nd::net
