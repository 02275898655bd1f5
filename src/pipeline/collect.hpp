// pipeline::Collect — the management-station end of the deployed system:
// accept device connections, ingest their framed reports, fleet-merge
// each interval as soon as every device has it, print and export it.
// `ndtm collect` is this class behind a flag parser; its header comment
// documents each flag the fields below mirror.
#pragma once

#include <atomic>
#include <string>
#include <utility>

#include "net/collector.hpp"
#include "pipeline/exit.hpp"
#include "pipeline/observability.hpp"

namespace nd::pipeline {

struct CollectConfig {
  /// Listen port (`--listen`, 0 = ephemeral), expected devices
  /// (`--devices`), timeout (`--timeout-ms`) and the journal
  /// (`--journal`, `--journal-fsync`). The pipeline fills in the
  /// metrics, trace and faults pointers and the on_interval sink.
  net::CollectorConfig collector{};
  /// The merged export: written as `<path>.partial`, renamed into place
  /// when run() ends; empty exports nothing.
  std::string export_path{};
  /// Publish the bound listen port here (removed at exit).
  std::string port_file{};
  ObservabilityConfig observability{};
};

class Collect {
 public:
  explicit Collect(CollectConfig config) : config_(std::move(config)) {}
  Collect(const Collect&) = delete;
  Collect& operator=(const Collect&) = delete;

  /// Serve until every expected device said bye, the timeout, or stop();
  /// return how it ended. Every line goes to stdout or stderr, as
  /// `ndtm collect` prints it.
  [[nodiscard]] Exit run();

  /// Graceful stop, async-signal-safe and callable from any thread
  /// (before run() too): run() stops accepting, merges the intervals
  /// still open as they stand, still writes the export, metrics and
  /// trace files, and returns kTransport — not every device finished.
  void stop() noexcept;

 private:
  static_assert(std::atomic<bool>::is_always_lock_free);
  static_assert(std::atomic<int>::is_always_lock_free);

  CollectConfig config_;
  std::atomic<bool> stop_requested_{false};
  /// The running collector's self-pipe (-1 while there is none).
  std::atomic<int> stop_fd_{-1};
};

}  // namespace nd::pipeline
