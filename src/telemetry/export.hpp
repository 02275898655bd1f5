// Snapshot exporters: JSON-lines (one object per measurement interval)
// and Prometheus text exposition
// (the scrape format, for dumping the registry at end of run).
//
// The JSON format round-trips: from_json_line(to_json_line(s)) == s,
// which is what lets the record codec's v3 metrics trailer and the
// collector persist snapshots as opaque JSON and recover them losslessly
// (tests/telemetry/export_test.cpp pins both directions).
//
// One JSON line per interval:
//
//   {"interval":4,"metrics":[
//     {"name":"nd_device_packets_total","labels":{"shard":"0"},
//      "kind":"counter","value":1234},
//     {"name":"nd_flowmem_occupancy","kind":"gauge","value":0.91},
//     {"name":"nd_pool_task_ns","kind":"histogram","count":7,
//      "sum":8123,"buckets":[[1023,3],[2047,4]]}]}
//
// Histogram buckets are (inclusive upper bound, count) pairs of the
// non-empty log buckets, ascending. The Prometheus rendering follows the
// exposition grammar: one `# TYPE` comment per series name, samples as
// `name{label="value"} number`, histograms expanded into cumulative
// `_bucket{le="..."}` samples plus `_sum`/`_count`.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"

namespace nd::telemetry {

/// One JSON object, no trailing newline.
[[nodiscard]] std::string to_json_line(const Snapshot& snapshot);

/// Strict parser for the exact format to_json_line emits; throws
/// std::invalid_argument on anything else (trailing garbage included).
[[nodiscard]] Snapshot from_json_line(std::string_view line);

/// Prometheus text exposition of a whole snapshot (trailing newline
/// included, as the format requires).
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot);

/// Interval-aligned JSON-lines sink: write() appends one line per call.
/// The stream is borrowed and must outlive the exporter.
class JsonLinesExporter {
 public:
  explicit JsonLinesExporter(std::ostream& out) : out_(&out) {}

  void write(const Snapshot& snapshot);
  /// Snapshot the registry at `interval` and write it; returns the
  /// snapshot so callers can also route it elsewhere.
  Snapshot write(const MetricsRegistry& registry, std::uint64_t interval);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream* out_;
  std::uint64_t lines_{0};
};

}  // namespace nd::telemetry
