// MeasurementSession: the runtime that turns a timestamped packet stream
// into per-interval device reports.
//
// Devices themselves are interval-agnostic (observe / end_interval);
// a real deployment needs something to watch the clock: classify each
// packet under the configured flow definition, close the measurement
// interval when a packet's timestamp crosses the boundary (including
// idle gaps spanning several intervals, so entry-preservation semantics
// stay correct), and hand finished reports to the consumer.
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/device.hpp"
#include "packet/flow_definition.hpp"
#include "packet/packet.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::core {

class MeasurementSession {
 public:
  /// `definition` may reference an AsResolver; the caller keeps that
  /// alive for the session's lifetime.
  MeasurementSession(std::unique_ptr<MeasurementDevice> device,
                     packet::FlowDefinition definition,
                     common::IntervalDuration interval_duration);

  /// Feed one packet. Timestamps must be non-decreasing (out-of-order
  /// packets within the current interval are fine; a packet from an
  /// already-closed interval is counted into the current one).
  void observe(const packet::PacketRecord& packet);

  /// Whether observe(packet) would close at least one interval before
  /// counting the packet (the test close_intervals_until applies).
  [[nodiscard]] bool closes_interval(
      const packet::PacketRecord& packet) const {
    return started_ && packet.timestamp_ns >= current_end_ns_;
  }

  /// Reports of all intervals closed so far (drained).
  [[nodiscard]] std::vector<Report> drain_reports();

  /// Close the in-progress interval (end of stream) and return every
  /// remaining report.
  [[nodiscard]] std::vector<Report> finish();

  /// Snapshot the session mid-stream (any point between packets, not
  /// just interval boundaries). Throws common::StateError when pending
  /// reports have not been drained — they would be lost — or when the
  /// device declines checkpointing (can_checkpoint() false).
  [[nodiscard]] SessionCheckpoint checkpoint() const;
  /// Rebuild a session from a checkpoint. `device` must be freshly
  /// constructed with the same configuration as the checkpointed one
  /// (verified by name; deeper mismatches throw from restore_state) and
  /// `definition` must match the original. Feeding the packets after
  /// the checkpoint point reproduces the fault-free reports bit for
  /// bit.
  [[nodiscard]] static MeasurementSession resume(
      const SessionCheckpoint& checkpoint,
      std::unique_ptr<MeasurementDevice> device,
      packet::FlowDefinition definition);

  [[nodiscard]] MeasurementDevice& device() { return *device_; }
  [[nodiscard]] std::uint64_t packets_observed() const { return packets_; }
  /// Packets the flow definition's pattern rejected.
  [[nodiscard]] std::uint64_t packets_unclassified() const {
    return unclassified_;
  }
  [[nodiscard]] common::IntervalIndex intervals_closed() const {
    return intervals_closed_;
  }

  /// Export session telemetry into `registry` (packet/unclassified/
  /// interval counters, effective-threshold gauge) and, when `exporter`
  /// is also given, write one interval-aligned JSON-lines snapshot of
  /// the whole registry per closed interval. Neither is owned; both
  /// must outlive the session. The registry should be the same one the
  /// device was constructed with so snapshots carry the device series
  /// too. Null detaches.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::JsonLinesExporter* exporter = nullptr);

  /// Record an interval-close span (and checkpoint-save spans via
  /// ndtm's wiring) into `recorder`. Not owned; null detaches.
  void attach_trace(telemetry::TraceRecorder* recorder) {
    trace_ = recorder;
  }

 private:
  void close_intervals_until(common::TimestampNs timestamp_ns);
  /// Telemetry hook, called after each interval's report is queued.
  void on_interval_closed(const Report& report);

  std::unique_ptr<MeasurementDevice> device_;
  packet::FlowDefinition definition_;
  common::TimestampNs interval_ns_;
  common::TimestampNs current_end_ns_;
  bool started_{false};
  std::uint64_t packets_{0};
  std::uint64_t unclassified_{0};
  common::IntervalIndex intervals_closed_{0};
  std::vector<Report> pending_;
  /// Telemetry state; null when detached.
  telemetry::TraceRecorder* trace_{nullptr};
  telemetry::MetricsRegistry* tm_registry_{nullptr};
  telemetry::JsonLinesExporter* tm_exporter_{nullptr};
  telemetry::Counter* tm_packets_{nullptr};
  telemetry::Counter* tm_unclassified_{nullptr};
  telemetry::Counter* tm_intervals_{nullptr};
  telemetry::Gauge* tm_effective_threshold_{nullptr};
  /// Totals already flushed into the counters (counters advance by
  /// interval deltas at each close).
  std::uint64_t tm_packets_flushed_{0};
  std::uint64_t tm_unclassified_flushed_{0};
};

}  // namespace nd::core
