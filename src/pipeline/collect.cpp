#include "pipeline/collect.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>

#include "reporting/record_codec.hpp"

namespace nd::pipeline {

namespace {

/// Trace pid for collector span files — a constant no device id can
/// collide with, so a device trace and the collector trace loaded into
/// one viewer land on separate process rows.
inline constexpr std::uint32_t kCollectorTracePid = 0xC011EC7;

/// Points Collect::stop() at the collector's self-pipe for as long as
/// the collector exists, and delivers a stop() that came first.
class StopLink {
 public:
  StopLink(std::atomic<int>& stop_fd, const std::atomic<bool>& requested,
           net::Collector& collector)
      : stop_fd_(stop_fd) {
    stop_fd_.store(collector.stop_fd());
    if (requested.load()) collector.stop();
  }
  ~StopLink() { stop_fd_.store(-1); }
  StopLink(const StopLink&) = delete;
  StopLink& operator=(const StopLink&) = delete;

 private:
  std::atomic<int>& stop_fd_;
};

/// One run's wiring. Members are declared in lifetime order: each is
/// built from the ones above it and destroyed before them.
class CollectRun {
 public:
  CollectRun(const CollectConfig& config, std::atomic<int>& stop_fd,
             const std::atomic<bool>& stop_requested);
  CollectRun(const CollectRun&) = delete;
  CollectRun& operator=(const CollectRun&) = delete;

  Exit run();

 private:
  std::ofstream open_export();
  std::unique_ptr<net::Collector> open_collector();
  std::uint16_t announce();
  telemetry::HttpExporterConfig status_endpoint();
  void write_interval(std::span<const std::uint8_t> encoded);

  const CollectConfig& config_;
  Observability obs_;
  const std::string partial_path_;
  /// The export is written to <path>.partial and renamed over <path>
  /// when run() ends, so a killed collector never leaves a truncated
  /// export under the final name.
  RemoveAtExit partial_file_;
  std::ofstream export_;
  /// The metrics file's snapshot interval: the last one merged.
  common::IntervalIndex last_interval_{0};
  /// Journal replay already completes intervals (into export_): a
  /// restart rebuilds the export from the journal.
  std::unique_ptr<net::Collector> collector_;
  StopLink stop_link_;
  /// --port-file, published once the listener is bound.
  RemoveAtExit port_file_;
  const std::uint16_t port_;
  /// /statusz renders the collector's device table.
  HttpServer http_;
};

CollectRun::CollectRun(const CollectConfig& config, std::atomic<int>& stop_fd,
                       const std::atomic<bool>& stop_requested)
    : config_(config),
      obs_(config.observability, "collect"),
      partial_path_(config.export_path + ".partial"),
      export_(open_export()),
      collector_(open_collector()),
      stop_link_(stop_fd, stop_requested, *collector_),
      port_(announce()),
      http_(obs_.serve_http(status_endpoint())) {}

std::ofstream CollectRun::open_export() {
  std::ofstream stream;
  if (config_.export_path.empty()) return stream;
  stream.open(partial_path_, std::ios::binary | std::ios::trunc);
  if (!stream) {
    throw Error(Exit::kIo, "cannot open " + partial_path_ + " for export");
  }
  partial_file_.arm(partial_path_);
  return stream;
}

std::unique_ptr<net::Collector> CollectRun::open_collector() {
  net::CollectorConfig collector = config_.collector;
  // Either metrics switch turns fleet aggregation on: every member's v3
  // metrics trailer lands in the registry under a device="<id>" label
  // plus device="fleet" rollups.
  collector.metrics = obs_.metrics();
  collector.trace = obs_.trace();
  collector.faults = obs_.faults();
  collector.on_interval = [this](std::span<const std::uint8_t> encoded) {
    write_interval(encoded);
  };
  auto daemon = std::make_unique<net::Collector>(collector);
  if (!collector.journal_path.empty()) {
    const net::CollectorStats replayed = daemon->stats();
    if (replayed.journal_replayed > 0 || replayed.journal_torn_records > 0) {
      std::printf(
          "journal: replayed %llu records (%llu torn skipped) from %s\n",
          static_cast<unsigned long long>(replayed.journal_replayed),
          static_cast<unsigned long long>(replayed.journal_torn_records),
          collector.journal_path.c_str());
    }
  }
  return daemon;
}

std::uint16_t CollectRun::announce() {
  const std::uint16_t port = collector_->port();
  write_port_file(config_.port_file, port);
  port_file_.arm(config_.port_file);
  std::printf("collect: listening on 127.0.0.1:%u for %u devices\n", port,
              config_.collector.expected_devices);
  std::fflush(stdout);
  return port;
}

telemetry::HttpExporterConfig CollectRun::status_endpoint() {
  telemetry::HttpExporterConfig endpoint;
  endpoint.status_text = [daemon = collector_.get()] {
    return daemon->status_text();
  };
  return endpoint;
}

void CollectRun::write_interval(std::span<const std::uint8_t> encoded) {
  // The collector's merge is already the export record: the bytes a
  // measure export writes, largest-first, so a merged export is
  // byte-comparable against a single-process sharded run.
  const reporting::ReportLayout merged = reporting::layout_of(encoded);
  telemetry::ScopedTraceSpan span(
      obs_.trace(), "collect.export", "collector",
      telemetry::TraceArgs{-1, -1, static_cast<std::int64_t>(merged.interval),
                           static_cast<std::int64_t>(encoded.size())},
      "bytes");
  std::printf("interval %u: %zu members, %zu flows, %llu entries\n",
              merged.interval, merged.shards(), merged.flows(),
              static_cast<unsigned long long>(merged.entries_used()));
  if (export_.is_open()) {
    export_.write(reinterpret_cast<const char*>(encoded.data()),
                  static_cast<std::streamsize>(encoded.size()));
  }
  last_interval_ = merged.interval;
}

Exit CollectRun::run() {
  const bool complete = collector_->run();
  // Intervals still open (a device that never said bye, or a gap no
  // device filled) are merged as they stand, through the same sink.
  collector_->deliver_open_intervals();
  const net::CollectorStats stats = collector_->stats();
  if (export_.is_open()) {
    export_.close();
    std::error_code error;
    if (!export_.fail()) {
      std::filesystem::rename(partial_path_, config_.export_path, error);
    }
    if (export_.fail() || error) {
      throw Error(Exit::kIo, "cannot write export " + config_.export_path);
    }
  }
  std::printf(
      "collect: %llu connections, %llu frames (%llu resyncs, %llu decode "
      "errors), %llu reports (%llu duplicates), %llu reconnects, %u/%u "
      "devices done\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.resyncs),
      static_cast<unsigned long long>(stats.decode_errors),
      static_cast<unsigned long long>(stats.reports_ingested),
      static_cast<unsigned long long>(stats.duplicate_reports),
      static_cast<unsigned long long>(stats.reconnects),
      collector_->devices_done(), config_.collector.expected_devices);
  if (!config_.collector.journal_path.empty()) {
    std::printf(
        "journal: %llu appended, %llu replayed (%llu torn, %llu write "
        "errors) -> %s\n",
        static_cast<unsigned long long>(stats.journal_records),
        static_cast<unsigned long long>(stats.journal_replayed),
        static_cast<unsigned long long>(stats.journal_torn_records),
        static_cast<unsigned long long>(stats.journal_write_errors),
        config_.collector.journal_path.c_str());
  }
  if (obs_.writes_metrics_file()) {
    (void)obs_.snapshot(last_interval_);
    std::printf("metrics: %zu series -> %s\n", obs_.series(),
                config_.observability.metrics_path.c_str());
  }
  Exit exit = Exit::kOk;
  if (!complete) {
    std::fprintf(stderr, "collect: gave up before all devices completed\n");
    exit = Exit::kTransport;
  }
  // A device whose bye counted intervals that never arrived: the merge
  // lacks them, which is a loss, not a success.
  for (const net::IntervalGap& gap : collector_->gaps()) {
    if (gap.first == gap.last) {
      std::fprintf(stderr, "collect: device %u missing interval %u\n",
                   gap.device_id, gap.first);
    } else {
      std::fprintf(stderr, "collect: device %u missing intervals %u-%u\n",
                   gap.device_id, gap.first, gap.last);
    }
    exit = Exit::kTransport;
  }
  if (!obs_.write_trace(kCollectorTracePid) && exit == Exit::kOk) {
    exit = Exit::kIo;
  }
  return exit;
}

}  // namespace

Exit Collect::run() {
  try {
    if (config_.collector.expected_devices == 0) {
      throw Error(Exit::kUsage, "collect: --devices must be at least 1");
    }
    CollectRun wiring(config_, stop_fd_, stop_requested_);
    return wiring.run();
  } catch (...) {
    return exit_for_current_exception("collect");
  }
}

void Collect::stop() noexcept {
  stop_requested_.store(true);
  const int fd = stop_fd_.load();
  if (fd >= 0) {
    const std::uint8_t byte = 1;
    (void)::write(fd, &byte, 1);
  }
}

}  // namespace nd::pipeline
