// The observability and chaos wiring pipeline::Measure and
// pipeline::Collect share: the metrics registry and its JSON-lines file,
// the HTTP scrape endpoint, the span recorder and its file, and the
// fault plan — plus the port files and scoped removals both use.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "robustness/fault.hpp"
#include "telemetry/export.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::pipeline {

struct ObservabilityConfig {
  /// JSON-lines registry snapshots go to this file (`--metrics`); empty
  /// writes none.
  std::string metrics_path{};
  /// Serve GET /metrics, /healthz and /statusz on 127.0.0.1 at this
  /// port (`--http-port`, 0 = ephemeral); unset serves nothing.
  std::optional<std::uint16_t> http_port{};
  /// Publish the bound HTTP port here (`--http-port-file`); removed at
  /// exit.
  std::string http_port_file{};
  /// Record spans and write them as chrome://tracing JSON to this file
  /// at exit (`--trace`); empty records nothing.
  std::string trace_path{};
  /// Deterministic chaos (`--fault-plan`, grammar in
  /// robustness/fault.hpp); unset injects nothing.
  std::optional<std::string> fault_plan{};
  std::uint64_t fault_seed{1};
};

/// Removes a file when the scope that wrote it ends — normal return or
/// exception unwind alike — so harnesses never pick up a stale port from
/// a dead incarnation, nor a half-built export.
class RemoveAtExit {
 public:
  RemoveAtExit() = default;
  ~RemoveAtExit();
  RemoveAtExit(const RemoveAtExit&) = delete;
  RemoveAtExit& operator=(const RemoveAtExit&) = delete;
  void arm(std::string path) { path_ = std::move(path); }

 private:
  std::string path_;
};

/// Publish a bound port for harnesses (`--port-file`,
/// `--http-port-file`): tmp + rename, so a poller never reads a
/// half-written port. Throws Error(kIo).
void write_port_file(const std::string& path, std::uint16_t port);

/// The running HTTP endpoint (or none). Its destructor joins the server
/// thread, so declare it after everything its callbacks read.
class HttpServer {
 public:
  HttpServer() = default;
  HttpServer(std::unique_ptr<telemetry::HttpExporter> exporter,
             const std::string& port_file);

 private:
  std::unique_ptr<telemetry::HttpExporter> exporter_;
  RemoveAtExit port_file_;
};

class Observability {
 public:
  /// Parses the fault plan (Error(kUsage) when it does not), opens the
  /// metrics file (Error(kIo)) and turns the registry on when either
  /// the file or the HTTP endpoint wants it. `command` prefixes
  /// messages. Devices built with a null registry carry zero telemetry
  /// cost on the packet path.
  Observability(const ObservabilityConfig& config, const char* command);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Null when neither a metrics file nor the HTTP endpoint is on.
  [[nodiscard]] telemetry::MetricsRegistry* metrics() {
    return registry_on_ ? &registry_ : nullptr;
  }
  [[nodiscard]] telemetry::TraceRecorder* trace() const {
    return tracer_.get();
  }
  [[nodiscard]] robustness::FaultInjector* faults() const {
    return faults_.get();
  }
  [[nodiscard]] bool writes_metrics_file() const {
    return metrics_exporter_ != nullptr;
  }
  [[nodiscard]] std::uint64_t snapshots_written() const {
    return metrics_exporter_ ? metrics_exporter_->lines_written() : 0;
  }
  [[nodiscard]] std::size_t series() const { return registry_.size(); }

  /// One interval-aligned registry snapshot (the process-global CRC
  /// byte counters folded in) as a JSON line, appended to the metrics
  /// file when there is one; empty when the registry is off.
  std::string snapshot(common::IntervalIndex interval);

  /// Start serving `config` (its metrics_text is filled in here) on the
  /// configured port, publish the port file and print the endpoint;
  /// an empty server when --http-port is off. Throws Error(kIo) when
  /// the port cannot be bound or published.
  [[nodiscard]] HttpServer serve_http(telemetry::HttpExporterConfig config);

  /// `fault <site>: fired N of M occurrences` per planned site.
  void print_fault_summary() const;
  /// Write the span file (trace pid `pid`) when --trace is on; false on
  /// an IO failure.
  [[nodiscard]] bool write_trace(std::uint32_t pid) const;

 private:
  const ObservabilityConfig& config_;
  const char* command_;
  telemetry::MetricsRegistry registry_;
  bool registry_on_;
  std::ofstream metrics_stream_;
  std::unique_ptr<telemetry::JsonLinesExporter> metrics_exporter_;
  std::unique_ptr<telemetry::TraceRecorder> tracer_;
  std::unique_ptr<robustness::FaultInjector> faults_;
};

}  // namespace nd::pipeline
