// The experiment driver: streams a synthesized trace through one or more
// measurement devices interval by interval, classifying packets once and
// computing ground truth once per interval.
//
// Each interval is classified exactly once into a reusable buffer of
// ClassifiedPackets; every device then sees that stream through
// observe(), one packet at a time — the path `ndtm measure` runs — and
// closes the interval before the next device starts.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "eval/metrics.hpp"
#include "eval/time_series.hpp"
#include "packet/classified_packet.hpp"
#include "packet/flow_definition.hpp"
#include "telemetry/metrics.hpp"
#include "trace/synthesizer.hpp"

namespace nd::eval {

struct DriverOptions {
  /// Intervals ignored while the devices warm up / the adaptive
  /// threshold stabilizes (the paper ignores the first 10).
  std::uint32_t warmup_intervals{0};
  /// Threshold the *metrics* use. 0 means "use each device's own current
  /// threshold" (right for adaptive devices).
  common::ByteCount metric_threshold{0};
  /// Link capacity for the Section 7.2 groups; 0 disables group metrics.
  common::ByteCount link_capacity{0};
  std::vector<GroupSpec> groups{};
  /// Record a per-interval TimePoint for each device (post-warmup).
  bool record_time_series{false};
  /// Export driver telemetry (interval latency histogram, packet and
  /// interval counters) into this registry. Not owned; must outlive the
  /// driver. Telemetry never feeds back into measurement, so results
  /// are identical with or without it.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// When set together with `metrics`, the driver takes one registry
  /// snapshot after every interval (interval-aligned, after all devices
  /// closed) and hands it here — wire a JsonLinesExporter::write or any
  /// other consumer in.
  std::function<void(const telemetry::Snapshot&)> snapshot_sink{};
};

struct DeviceResult {
  std::string label;
  /// Means over the evaluated (post-warmup) intervals.
  Mean false_negative_fraction;
  Mean false_positive_percentage;
  Mean avg_error_over_threshold;
  Mean entries_used;
  std::size_t max_entries_used{0};
  /// For sharded devices this is the effective (max per-shard)
  /// threshold; per-shard finals live in `shards`.
  common::ByteCount final_threshold{0};
  std::uint64_t packets{0};
  std::uint64_t memory_accesses{0};
  std::vector<GroupAccuracyAccumulator::Result> groups;
  /// Present when DriverOptions::record_time_series is set.
  std::vector<TimePoint> time_series;

  /// Per-shard threshold/usage trajectory, filled for devices whose
  /// reports carry core::ShardStatus annotations (empty otherwise).
  struct ShardTrack {
    /// Threshold the shard carries out of the last evaluated interval.
    common::ByteCount final_threshold{0};
    /// Smoothed usage at the last evaluated interval.
    double final_usage{0.0};
    /// Mean smoothed usage over the evaluated intervals.
    Mean usage;
    std::size_t max_entries_used{0};
    /// Traffic the shard received over the evaluated intervals (feeds
    /// the load-imbalance columns).
    std::uint64_t packets{0};
    common::ByteCount bytes{0};
  };
  std::vector<ShardTrack> shards;
};

class Driver {
 public:
  Driver(packet::FlowDefinition definition, DriverOptions options);

  /// Register a device; the driver does not take ownership.
  void add_device(std::string label, core::MeasurementDevice& device);

  /// Feed one interval of packets through every device.
  void observe_interval(std::span<const packet::PacketRecord> packets);

  /// Run a whole synthesizer (from its current position to the end).
  void run(trace::TraceSynthesizer& synthesizer);

  [[nodiscard]] std::vector<DeviceResult> results() const;

 private:
  struct DeviceSlot {
    std::string label;
    core::MeasurementDevice* device;
    DeviceResult result;
    std::unique_ptr<GroupAccuracyAccumulator> groups;
  };

  /// Run one device over the already-classified current interval:
  /// observe per packet, end_interval, then metric accumulation.
  void process_slot(DeviceSlot& slot, bool evaluated);

  packet::FlowDefinition definition_;
  DriverOptions options_;
  std::vector<DeviceSlot> devices_;
  std::uint32_t interval_index_{0};
  /// Driver-level instruments; null when DriverOptions::metrics unset.
  telemetry::Counter* tm_intervals_{nullptr};
  telemetry::Counter* tm_packets_{nullptr};
  telemetry::Histogram* tm_interval_ns_{nullptr};
  /// Reusable classified-packet buffer and ground truth for the
  /// interval being processed.
  std::vector<packet::ClassifiedPacket> classified_;
  TruthMap truth_;
};

/// Convenience for single-device experiments: run `device` over a fresh
/// trace synthesized from `config` and return its result.
[[nodiscard]] DeviceResult run_single(core::MeasurementDevice& device,
                                      const trace::TraceConfig& config,
                                      const packet::FlowDefinition& definition,
                                      const DriverOptions& options);

/// Render a sharded device's per-shard columns — final threshold, mean
/// usage, peak entries, and the traffic tallies with each shard's share
/// — followed by the max/mean load-imbalance line (the same ratio
/// eval::summarize_shards reports per interval, here over the whole
/// run). Empty string for devices without ShardStatus annotations.
[[nodiscard]] std::string shard_table(const DeviceResult& result);

}  // namespace nd::eval
