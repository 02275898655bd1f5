// Embedded HTTP observability endpoint: a tiny poll-loop HTTP/1.0
// server that makes a running process scrapeable —
//
//   GET /metrics   Prometheus text exposition (the callback renders the
//                  live registry; the format is telemetry/export.hpp's
//                  to_prometheus)
//   GET /healthz   200 "ok" while the healthy() callback returns true,
//                  503 once it does not (a device flips while its spool
//                  holds a backlog)
//   GET /statusz   human-readable status: uptime, device table,
//                  reconnect epochs — whatever the status callback
//                  renders
//
// One background thread owns a loopback listener (net::Socket,
// ephemeral-port capable) and the collector's self-pipe stop pattern;
// requests are served one at a time with a receive deadline, which is
// all a scrape endpoint needs. Strictly zero overhead when not
// constructed: nothing in the pipeline references the exporter — it
// only reads through the callbacks.
//
// The header lives in telemetry/ (it is the observability plane's front
// door) but the implementation compiles into the net library, which
// owns the socket layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "net/socket.hpp"

namespace nd::telemetry {

struct HttpExporterConfig {
  /// 127.0.0.1 listen port; 0 = kernel-assigned (read back via port()).
  std::uint16_t port{0};
  /// Body of GET /metrics. Must be thread-safe: it runs on the server
  /// thread (registry snapshots already are).
  std::function<std::string()> metrics_text;
  /// Body of GET /statusz; unset serves a minimal placeholder.
  std::function<std::string()> status_text;
  /// GET /healthz predicate; unset means always healthy.
  std::function<bool()> healthy;
};

class HttpExporter {
 public:
  /// Binds and listens immediately (throws net::NetError when the port
  /// is taken); start() begins serving.
  explicit HttpExporter(HttpExporterConfig config);
  /// stop()s and joins.
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  void start();
  void stop();

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void serve(net::Socket client);
  [[nodiscard]] std::string respond(const std::string& request) const;

  HttpExporterConfig config_;
  net::Socket listener_;
  std::uint16_t port_{0};
  /// Self-pipe: stop() writes a byte, the poll loop wakes and exits.
  net::Socket stop_reader_;
  net::Socket stop_writer_;
  std::thread thread_;
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace nd::telemetry
