#include "net/collector.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "reporting/record_codec.hpp"
#include "telemetry/export.hpp"

namespace nd::net {

/// One accepted device connection: its socket, its stream parser, and
/// the device id its hello announced (none until then).
struct Collector::Connection {
  explicit Connection(Socket accepted) : socket(std::move(accepted)) {}
  Socket socket;
  FrameStreamParser parser;
  bool saw_hello{false};
  std::uint32_t device_id{0};
};

/// Routes one connection's parser events into the collector's shared
/// state. Constructed on the stack per service() call; the loop thread
/// already holds mutex_ while feeding the parser.
class Collector::ConnectionEvents final : public FrameStreamParser::Events {
 public:
  ConnectionEvents(Collector& collector, Connection& conn)
      : collector_(collector), conn_(conn) {}

  void on_hello(const Hello& hello) override {
    conn_.saw_hello = true;
    conn_.device_id = hello.device_id;
    ++collector_.stats_.hellos;
    DeviceState& device = collector_.devices_[hello.device_id];
    device.epoch = hello.epoch;
    if (hello.epoch > 0) {
      ++collector_.stats_.reconnects;
      if (collector_.tm_reconnects_ != nullptr) {
        collector_.tm_reconnects_->increment();
      }
    }
  }

  void on_bye(const Bye& bye) override {
    ++collector_.stats_.byes;
    collector_.mark_bye(bye.device_id, bye.intervals, /*journal=*/true);
  }

  void on_report_frame(std::span<const std::uint8_t> payload) override {
    ++collector_.stats_.frames_received;
    if (collector_.tm_frames_ != nullptr) {
      collector_.tm_frames_->increment();
    }
    if (!conn_.saw_hello) {
      // A report with no owner cannot enter the merge; a well-behaved
      // device always introduces itself first, so count and drop.
      ++collector_.stats_.decode_errors;
      if (collector_.tm_decode_errors_ != nullptr) {
        collector_.tm_decode_errors_->increment();
      }
      return;
    }
    collector_.ingest_report_payload(conn_.device_id, payload,
                                     /*journal=*/true);
  }

  void on_resync(std::size_t bytes_skipped) override {
    (void)bytes_skipped;
    ++collector_.stats_.resyncs;
    if (collector_.tm_resyncs_ != nullptr) {
      collector_.tm_resyncs_->increment();
    }
  }

 private:
  Collector& collector_;
  Connection& conn_;
};

/// Routes replayed journal records back into the normal ingestion path.
class Collector::JournalReplay final : public JournalReplayEvents {
 public:
  explicit JournalReplay(Collector& collector) : collector_(collector) {}

  void on_report(std::uint32_t device_id, std::uint32_t epoch,
                 std::span<const std::uint8_t> payload) override {
    DeviceState& device = collector_.devices_[device_id];
    device.epoch = std::max(device.epoch, epoch);
    collector_.ingest_report_payload(device_id, payload,
                                     /*journal=*/false);
  }

  void on_bye(std::uint32_t device_id, std::uint32_t /*epoch*/,
              std::uint32_t intervals) override {
    collector_.mark_bye(device_id, intervals, /*journal=*/false);
  }

 private:
  Collector& collector_;
};

Collector::Collector(const CollectorConfig& config) : config_(config) {
  listener_ = tcp_listen(config_.port, &port_);
  set_nonblocking(listener_.fd(), true);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw NetError("net: collector stop pipe");
  }
  stop_reader_ = Socket(pipe_fds[0]);
  stop_writer_ = Socket(pipe_fds[1]);
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& registry = *config_.metrics;
    const telemetry::Labels& labels = config_.metric_labels;
    tm_connections_ =
        &registry.counter("nd_net_connections_total", labels);
    tm_frames_ = &registry.counter("nd_net_frames_total", labels);
    tm_reports_ = &registry.counter("nd_net_reports_total", labels);
    tm_duplicates_ =
        &registry.counter("nd_net_duplicate_reports_total", labels);
    tm_late_ = &registry.counter("nd_net_late_reports_total", labels);
    tm_missing_ =
        &registry.counter("nd_net_missing_intervals_total", labels);
    tm_decode_errors_ =
        &registry.counter("nd_net_decode_errors_total", labels);
    tm_resyncs_ = &registry.counter("nd_net_resync_total", labels);
    tm_reconnects_ =
        &registry.counter("nd_net_reconnects_total", labels);
    tm_merge_ns_ = &registry.histogram("nd_net_merge_ns", labels);
    if (!config_.journal_path.empty()) {
      tm_journal_records_ =
          &registry.counter("nd_journal_records_total", labels);
      tm_journal_replayed_ =
          &registry.counter("nd_journal_replayed_total", labels);
      tm_journal_torn_ =
          &registry.counter("nd_journal_torn_records_total", labels);
      tm_journal_write_errors_ =
          &registry.counter("nd_journal_write_errors_total", labels);
    }
    aggregator_.emplace(registry);
  }
  if (!config_.journal_path.empty()) {
    // Replay whatever a previous incarnation journaled, then open the
    // log for appending — recovery before the listener sees a byte.
    replay_journal_file();
    journal_.emplace(
        JournalWriterConfig{.path = config_.journal_path,
                            .fsync = config_.journal_fsync,
                            .fsync_batch = config_.journal_fsync_batch,
                            .faults = config_.faults,
                            .metrics = config_.metrics,
                            .metric_labels = config_.metric_labels});
  }
  ingest_buffer_.resize(64 * 1024);
  std::vector<core::Report> replayed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    replayed = take_complete_locked();
  }
  deliver(std::move(replayed));
}

void Collector::replay_journal_file() {
  std::ifstream in(config_.journal_path, std::ios::binary);
  if (!in) return;  // first run: nothing to replay
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)),
      std::istreambuf_iterator<char>());
  telemetry::ScopedTraceSpan span(
      config_.trace, "journal.replay", "collector", telemetry::TraceArgs{},
      "records");
  JournalReplay events(*this);
  const JournalReplayStats replayed = replay_journal(bytes, events);
  span.mutable_args().value =
      static_cast<std::int64_t>(replayed.records);
  stats_.journal_replayed += replayed.records;
  stats_.journal_torn_records += replayed.torn;
  if (tm_journal_replayed_ != nullptr) {
    tm_journal_replayed_->add(replayed.records);
  }
  if (tm_journal_torn_ != nullptr) tm_journal_torn_->add(replayed.torn);
}

void Collector::ingest_report_payload(std::uint32_t device_id,
                                      std::span<const std::uint8_t> payload,
                                      bool journal) {
  DeviceState& device = devices_[device_id];
  reporting::DecodedReport decoded;
  {
    telemetry::ScopedTraceSpan span(
        config_.trace, "frame.decode", "collector",
        telemetry::TraceArgs{device_id, device.epoch, -1,
                             static_cast<std::int64_t>(payload.size())},
        "bytes");
    try {
      decoded = reporting::decode_full(payload);
    } catch (const reporting::CodecError&) {
      // The CRC passed but the payload is not a report: a sender-side
      // corruption of the pre-framing bytes (or, on the replay path, a
      // journal record damaged before its CRC was computed). Drop it;
      // the device's retry loop re-sends the interval.
      ++stats_.decode_errors;
      if (tm_decode_errors_ != nullptr) {
        tm_decode_errors_->increment();
      }
      return;
    }
    span.mutable_args().interval =
        static_cast<std::int64_t>(decoded.report.interval);
  }
  const common::IntervalIndex interval = decoded.report.interval;
  if (interval < next_interval_ &&
      !(interval < device.merged.size() && device.merged[interval])) {
    // Its interval was merged without this device (released by a bye):
    // too late to join, and a replay must not see it either.
    ++stats_.late_reports;
    if (tm_late_ != nullptr) tm_late_->increment();
    if (config_.trace != nullptr) {
      config_.trace->instant(
          "report.late", "collector",
          telemetry::TraceArgs{device_id, device.epoch,
                               static_cast<std::int64_t>(interval)});
    }
    return;
  }
  if (interval < next_interval_ ||
      device.reports.find(interval) != device.reports.end()) {
    // A reconnecting device re-ships intervals it cannot prove
    // arrived; first-copy-wins keeps the merge exactly-once — and
    // keeps the fleet aggregation exactly-once too (the duplicate's
    // trailer is discarded with it).
    ++stats_.duplicate_reports;
    if (tm_duplicates_ != nullptr) {
      tm_duplicates_->increment();
    }
    if (config_.trace != nullptr) {
      config_.trace->instant(
          "report.duplicate", "collector",
          telemetry::TraceArgs{device_id, device.epoch,
                               static_cast<std::int64_t>(interval)});
    }
    return;
  }
  if (journal && journal_.has_value()) {
    // Journal before merge: once this report can influence the fleet
    // merge, it must survive a crash. Only first copies are written —
    // a duplicate adds nothing a replay needs.
    encode_journal_report_into(journal_scratch_, device_id, device.epoch,
                               payload);
    if (journal_->append(journal_scratch_)) {
      ++stats_.journal_records;
      if (tm_journal_records_ != nullptr) {
        tm_journal_records_->increment();
      }
      if (config_.trace != nullptr) {
        config_.trace->instant(
            "journal.append", "collector",
            telemetry::TraceArgs{device_id, device.epoch,
                                 static_cast<std::int64_t>(interval)});
      }
    } else {
      ++stats_.journal_write_errors;
      if (tm_journal_write_errors_ != nullptr) {
        tm_journal_write_errors_->increment();
      }
    }
  }
  device.reports.emplace(interval, std::move(decoded.report));
  ++device.reports_ingested;
  ++stats_.reports_ingested;
  if (tm_reports_ != nullptr) {
    tm_reports_->increment();
  }
  ingest_metrics_trailer(device_id, decoded.metrics_json);
}

void Collector::mark_bye(std::uint32_t device_id, std::uint32_t intervals,
                         bool journal) {
  DeviceState& device = devices_[device_id];
  const bool first_bye = !device.bye;
  device.bye = true;
  if (first_bye) record_gaps_locked(device_id, device, intervals);
  if (first_bye && journal && journal_.has_value()) {
    const std::vector<std::uint8_t> record =
        encode_journal_bye(device_id, device.epoch, intervals);
    if (journal_->append(record)) {
      ++stats_.journal_records;
      if (tm_journal_records_ != nullptr) {
        tm_journal_records_->increment();
      }
    } else {
      ++stats_.journal_write_errors;
      if (tm_journal_write_errors_ != nullptr) {
        tm_journal_write_errors_->increment();
      }
    }
  }
}

void Collector::record_gaps_locked(std::uint32_t device_id,
                                   const DeviceState& device,
                                   common::IntervalIndex intervals) {
  // Walk the delivered intervals below the bye's count in ascending
  // order (merged bits, then the open window, whose keys all lie above
  // the watermark); every hole between two of them is a gap.
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  const auto delivered = [&](std::uint64_t interval) {
    if (interval > expected) {
      gaps_.push_back(IntervalGap{
          device_id, static_cast<common::IntervalIndex>(expected),
          static_cast<common::IntervalIndex>(interval - 1)});
      missing += interval - expected;
    }
    expected = interval + 1;
  };
  const std::size_t merged_below =
      std::min<std::size_t>(device.merged.size(), intervals);
  for (std::size_t interval = 0; interval < merged_below; ++interval) {
    if (device.merged[interval]) delivered(interval);
  }
  for (const auto& [interval, report] : device.reports) {
    if (interval >= intervals) break;
    delivered(interval);
  }
  delivered(intervals);
  stats_.missing_intervals += missing;
  if (tm_missing_ != nullptr) tm_missing_->add(missing);
}

bool Collector::interval_complete_locked(
    common::IntervalIndex interval) const {
  bool reported = false;
  for (const auto& [id, device] : devices_) {
    if (device.reports.count(interval) != 0) {
      reported = true;
    } else if (!device.bye) {
      return false;
    }
  }
  return reported;
}

std::vector<core::Report> Collector::take_complete_locked() {
  std::vector<core::Report> ready;
  // Nothing is complete until the whole fleet is known: an interval
  // every member seen so far has reported may still wait for one that
  // has not dialed in yet.
  if (config_.expected_devices == 0 ||
      devices_.size() < config_.expected_devices) {
    return ready;
  }
  std::vector<core::Report> members;
  while (next_interval_ <= std::numeric_limits<common::IntervalIndex>::max()) {
    const auto interval = static_cast<common::IntervalIndex>(next_interval_);
    if (!interval_complete_locked(interval)) break;
    members.clear();
    for (auto& [id, device] : devices_) {
      auto node = device.reports.extract(interval);
      device.merged.resize(interval, false);
      device.merged.push_back(!node.empty());
      if (!node.empty()) members.push_back(std::move(node.mapped()));
    }
    ++next_interval_;
    core::Report merged = merge_members(interval, members);
    if (config_.on_interval) {
      ready.push_back(std::move(merged));
    } else {
      emitted_.push_back(std::move(merged));
    }
  }
  return ready;
}

void Collector::deliver(std::vector<core::Report> merged) {
  for (core::Report& report : merged) config_.on_interval(std::move(report));
}

core::Report Collector::merge_members(
    common::IntervalIndex interval,
    std::span<const core::Report> members) const {
  const telemetry::ScopedTimer timer(tm_merge_ns_);
  telemetry::ScopedTraceSpan span(
      config_.trace, "fleet.merge", "collector",
      telemetry::TraceArgs{-1, -1, static_cast<std::int64_t>(interval),
                           static_cast<std::int64_t>(members.size())},
      "members");
  return core::merge_member_reports(interval, members);
}

void Collector::ingest_metrics_trailer(std::uint32_t device_id,
                                       const std::string& metrics_json) {
  if (!aggregator_.has_value() || metrics_json.empty()) return;
  // The trailer is one JSON line per snapshotted interval.
  std::size_t begin = 0;
  while (begin < metrics_json.size()) {
    std::size_t end = metrics_json.find('\n', begin);
    if (end == std::string::npos) end = metrics_json.size();
    const std::string_view line(metrics_json.data() + begin,
                                end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    try {
      aggregator_->ingest(device_id, telemetry::from_json_line(line));
    } catch (const std::invalid_argument&) {
      // A trailer that is not our JSON is sender-side corruption of
      // opaque bytes: count it, keep the report (it decoded fine).
      ++stats_.decode_errors;
      if (tm_decode_errors_ != nullptr) tm_decode_errors_->increment();
    }
  }
}

std::string Collector::status_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto uptime =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_);
  std::string out = "collector status\n";
  out += "uptime_ms: " + std::to_string(uptime.count()) + "\n";
  out += "connections: " +
         std::to_string(stats_.connections_accepted) + " accepted, " +
         std::to_string(stats_.connections_closed) + " closed\n";
  out += "frames: " + std::to_string(stats_.frames_received) +
         " received, " + std::to_string(stats_.resyncs) + " resyncs, " +
         std::to_string(stats_.decode_errors) + " decode errors\n";
  out += "reports: " + std::to_string(stats_.reports_ingested) +
         " ingested, " + std::to_string(stats_.duplicate_reports) +
         " duplicates, " + std::to_string(stats_.late_reports) +
         " late, " + std::to_string(stats_.missing_intervals) +
         " missing\n";
  if (journal_.has_value()) {
    out += "journal: " + std::to_string(stats_.journal_records) +
           " appended, " + std::to_string(stats_.journal_replayed) +
           " replayed, " + std::to_string(stats_.journal_torn_records) +
           " torn, " + std::to_string(stats_.journal_write_errors) +
           " write errors\n";
  }
  out += "devices:\n";
  for (const auto& [id, device] : devices_) {
    out += "  device " + std::to_string(id) + ": epoch " +
           std::to_string(device.epoch) + ", " +
           std::to_string(device.reports_ingested) + " reports" +
           (device.bye ? ", bye" : "");
    const char* separator = ", missing intervals ";
    for (const IntervalGap& gap : gaps_) {
      if (gap.device_id != id) continue;
      out += separator;
      out += std::to_string(gap.first);
      if (gap.last != gap.first) {
        out += '-';
        out += std::to_string(gap.last);
      }
      separator = ",";
    }
    out += "\n";
  }
  return out;
}

Collector::~Collector() {
  stop();
  if (thread_.joinable()) thread_.join();
}

bool Collector::all_done_locked() const {
  if (config_.expected_devices == 0) return false;
  std::uint32_t done = 0;
  for (const auto& [id, device] : devices_) {
    if (device.bye) ++done;
  }
  return done >= config_.expected_devices;
}

void Collector::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN (drained) or transient failure
    Socket accepted(fd);
    set_nonblocking(accepted.fd(), true);
    ++stats_.connections_accepted;
    if (tm_connections_ != nullptr) tm_connections_->increment();
    connections_.push_back(
        std::make_unique<Connection>(std::move(accepted)));
  }
}

bool Collector::service(Connection& conn) {
  ConnectionEvents events(*this, conn);
  std::size_t drained = 0;
  for (;;) {
    const ssize_t n = read_some(conn.socket.fd(), ingest_buffer_.data(),
                                ingest_buffer_.size());
    if (n > 0) {
      stats_.bytes_received += static_cast<std::uint64_t>(n);
      drained += static_cast<std::size_t>(n);
      conn.parser.feed(
          {ingest_buffer_.data(), static_cast<std::size_t>(n)}, events);
      // Fairness cap first: a device blasting its spool backlog must
      // yield to the other connections once the per-wake budget is
      // spent, even when the kernel hands the bytes over in sub-buffer
      // reads (anything still queued survives to the next poll wake).
      if (config_.max_drain_bytes_per_wake != 0 &&
          drained >= config_.max_drain_bytes_per_wake) {
        ++stats_.drain_cap_hits;
        return true;
      }
      // A short read means the socket buffer is empty: stop here
      // instead of paying one more read() just to see EAGAIN.
      if (static_cast<std::size_t>(n) < ingest_buffer_.size()) {
        return true;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // Orderly EOF or a hard error: either way the connection is done.
    // A partial frame left in the parser is dropped — the device's
    // channel never got a success for it and will re-send the whole
    // interval on its next connection.
    if (conn.parser.reset() > 0) ++stats_.partial_frames_dropped;
    return false;
  }
}

void Collector::close_connection(std::size_t index) {
  ++stats_.connections_closed;
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
}

void Collector::drain_remaining_locked() {
  // Every device said bye, but a connection cut earlier may still hold
  // queued bytes and an unread EOF — e.g. the strict prefix a
  // mid-frame disconnect left on the wire. service() stops at a short
  // read, so that EOF can be pending a poll wake that will never come.
  // Sweep the survivors once (non-blocking throughout) so the
  // partial-frame accounting is deterministic instead of a race
  // between the last bye and the dead connection's wake.
  for (std::size_t i = connections_.size(); i-- > 0;) {
    if (!service(*connections_[i])) close_connection(i);
  }
}

bool Collector::run() {
  const bool bounded = config_.timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + config_.timeout;
  std::vector<pollfd> fds;
  for (;;) {
    // Once per poll wake, after every ready connection was serviced, so
    // an interval a bye releases cannot overtake a report still queued
    // on another connection in the same wake.
    bool done = false;
    bool stopped = false;
    std::vector<core::Report> complete;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done = all_done_locked();
      if (done) drain_remaining_locked();
      stopped = stop_requested_;
      complete = take_complete_locked();
    }
    deliver(std::move(complete));
    if (done) return true;
    if (stopped) return false;
    int timeout_ms = -1;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return false;
      timeout_ms = static_cast<int>(remaining.count());
    }

    fds.clear();
    fds.push_back(pollfd{stop_reader_.fd(), POLLIN, 0});
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& conn : connections_) {
        fds.push_back(pollfd{conn->socket.fd(), POLLIN, 0});
      }
    }

    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw NetError("net: collector poll failed");
    }
    if (ready == 0) continue;  // deadline re-checked at loop top

    if ((fds[0].revents & POLLIN) != 0) {
      std::array<std::uint8_t, 64> drain;
      (void)read_some(stop_reader_.fd(), drain.data(), drain.size());
      std::lock_guard<std::mutex> lock(mutex_);
      stop_requested_ = true;
      continue;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if ((fds[1].revents & POLLIN) != 0) accept_ready();
    // fds[2 + i] mirrors connections_[i]; service back-to-front so
    // close_connection's erase never shifts an index still to visit.
    const std::size_t watched = fds.size() - 2;
    for (std::size_t i = watched; i-- > 0;) {
      if (i >= connections_.size()) continue;
      const short revents = fds[2 + i].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!service(*connections_[i])) close_connection(i);
    }
  }
}

void Collector::start() {
  thread_ = std::thread([this] { thread_result_ = run(); });
}

void Collector::stop() {
  const std::uint8_t byte = 1;
  (void)::write(stop_writer_.fd(), &byte, 1);
}

bool Collector::wait() {
  if (thread_.joinable()) thread_.join();
  return thread_result_;
}

std::vector<core::Report> Collector::merged_reports() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Every interval still open on any device, ascending.
  std::vector<common::IntervalIndex> intervals;
  for (const auto& [id, device] : devices_) {
    for (const auto& [interval, report] : device.reports) {
      intervals.push_back(interval);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  intervals.erase(std::unique(intervals.begin(), intervals.end()),
                  intervals.end());

  std::vector<core::Report> merged = emitted_;
  merged.reserve(emitted_.size() + intervals.size());
  std::vector<core::Report> members;
  for (const common::IntervalIndex interval : intervals) {
    // Member order is ascending device id (std::map iteration), the
    // fleet analogue of ShardedDevice's merge-in-shard-order.
    members.clear();
    for (const auto& [id, device] : devices_) {
      const auto it = device.reports.find(interval);
      if (it != device.reports.end()) members.push_back(it->second);
    }
    merged.push_back(merge_members(interval, members));
  }
  return merged;
}

CollectorStats Collector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<IntervalGap> Collector::gaps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gaps_;
}

std::uint32_t Collector::devices_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t done = 0;
  for (const auto& [id, device] : devices_) {
    if (device.bye) ++done;
  }
  return done;
}

}  // namespace nd::net
