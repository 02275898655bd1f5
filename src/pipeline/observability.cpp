#include "pipeline/observability.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"
#include "net/socket.hpp"
#include "pipeline/exit.hpp"

namespace nd::pipeline {

RemoveAtExit::~RemoveAtExit() {
  if (path_.empty()) return;
  std::error_code discard;
  std::filesystem::remove(path_, discard);
}

void write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  RemoveAtExit tmp_guard;  // a failed publish leaves no tmp behind
  tmp_guard.arm(tmp);
  {
    std::ofstream stream(tmp, std::ios::trunc);
    if (!stream) {
      throw Error(Exit::kIo, "cannot open " + tmp + " for writing");
    }
    stream << port << "\n";
    if (!stream.good()) throw Error(Exit::kIo, "short write to " + tmp);
  }
  std::error_code error;
  std::filesystem::rename(tmp, path, error);
  if (error) {
    throw Error(Exit::kIo, "cannot rename " + tmp +
                               " into place: " + error.message());
  }
}

HttpServer::HttpServer(std::unique_ptr<telemetry::HttpExporter> exporter,
                       const std::string& port_file)
    : exporter_(std::move(exporter)) {
  port_file_.arm(port_file);
}

Observability::Observability(const ObservabilityConfig& config,
                             const char* command)
    : config_(config),
      command_(command),
      registry_on_(!config.metrics_path.empty() ||
                   config.http_port.has_value()) {
  // Parsed up front so a malformed spec is a usage error, not a mid-run
  // surprise.
  if (config.fault_plan) {
    try {
      faults_ = std::make_unique<robustness::FaultInjector>(
          robustness::parse_fault_plan(*config.fault_plan,
                                       config.fault_seed));
    } catch (const std::invalid_argument& error) {
      throw Error(Exit::kUsage, std::string(command) +
                                    ": bad --fault-plan: " + error.what());
    }
    faults_->attach_telemetry(metrics());
  }
  if (!config.metrics_path.empty()) {
    metrics_stream_.open(config.metrics_path);
    if (!metrics_stream_) {
      throw Error(Exit::kIo,
                  "cannot open " + config.metrics_path + " for metrics");
    }
    metrics_exporter_ =
        std::make_unique<telemetry::JsonLinesExporter>(metrics_stream_);
  }
  // Off (the default) every instrumented site holds a null recorder —
  // one branch, no clock reads.
  if (!config.trace_path.empty()) {
    tracer_ = std::make_unique<telemetry::TraceRecorder>();
  }
}

std::string Observability::snapshot(common::IntervalIndex interval) {
  if (!registry_on_) return {};
  common::sync_crc32_metrics(registry_);
  if (metrics_exporter_) {
    return telemetry::to_json_line(
        metrics_exporter_->write(registry_, interval));
  }
  return telemetry::to_json_line(registry_.snapshot(interval));
}

HttpServer Observability::serve_http(telemetry::HttpExporterConfig config) {
  if (!config_.http_port) return HttpServer();
  config.port = *config_.http_port;
  config.metrics_text = [this] {
    // Fold the process-global CRC byte counters into this scrape —
    // nd_crc_bytes_total{impl=...} shows which CRC kernel is live.
    common::sync_crc32_metrics(registry_);
    return telemetry::to_prometheus(registry_.snapshot());
  };
  std::unique_ptr<telemetry::HttpExporter> exporter;
  try {
    exporter = std::make_unique<telemetry::HttpExporter>(std::move(config));
  } catch (const net::NetError& error) {
    throw Error(Exit::kIo,
                std::string(command_) + ": --http-port: " + error.what());
  }
  exporter->start();
  write_port_file(config_.http_port_file, exporter->port());
  std::printf("%s: observability http on 127.0.0.1:%u\n", command_,
              exporter->port());
  std::fflush(stdout);
  return HttpServer(std::move(exporter), config_.http_port_file);
}

void Observability::print_fault_summary() const {
  if (!faults_) return;
  for (const auto& entry : faults_->plan().sites()) {
    const std::string& site = entry.first;
    std::printf("fault %s: fired %llu of %llu occurrences\n", site.c_str(),
                static_cast<unsigned long long>(faults_->fires(site)),
                static_cast<unsigned long long>(faults_->occurrences(site)));
  }
}

bool Observability::write_trace(std::uint32_t pid) const {
  if (!tracer_) return true;
  const std::string& path = config_.trace_path;
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s for trace\n", path.c_str());
    return false;
  }
  const std::vector<telemetry::TraceEvent> events = tracer_->events();
  stream << telemetry::to_chrome_trace(events, pid);
  std::printf("trace: %zu spans (%llu dropped) -> %s\n", events.size(),
              static_cast<unsigned long long>(tracer_->dropped()),
              path.c_str());
  return stream.good();
}

}  // namespace nd::pipeline
