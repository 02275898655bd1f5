#include "eval/driver.hpp"

#include <algorithm>
#include <cstdio>

#include "common/format.hpp"
#include "eval/table.hpp"
#include "trace/stats.hpp"

namespace nd::eval {

Driver::Driver(packet::FlowDefinition definition, DriverOptions options)
    : definition_(std::move(definition)), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    tm_intervals_ = &options_.metrics->counter("nd_driver_intervals_total");
    tm_packets_ = &options_.metrics->counter("nd_driver_packets_total");
    tm_interval_ns_ =
        &options_.metrics->histogram("nd_driver_interval_ns");
  }
}

void Driver::add_device(std::string label, core::MeasurementDevice& device) {
  DeviceSlot slot;
  slot.label = std::move(label);
  slot.device = &device;
  slot.result.label = slot.label;
  if (options_.link_capacity > 0 && !options_.groups.empty()) {
    slot.groups = std::make_unique<GroupAccuracyAccumulator>(
        options_.groups, options_.link_capacity);
  }
  devices_.push_back(std::move(slot));
}

void Driver::process_slot(DeviceSlot& slot, bool evaluated) {
  for (const packet::ClassifiedPacket& packet : classified_) {
    slot.device->observe(packet.key, packet.bytes);
  }
  const common::ByteCount device_threshold = slot.device->threshold();
  core::Report report = slot.device->end_interval();
  if (!evaluated) return;

  const common::ByteCount metric_threshold =
      options_.metric_threshold > 0 ? options_.metric_threshold
                                    : device_threshold;
  const ThresholdMetrics metrics =
      threshold_metrics(report, truth_, std::max<common::ByteCount>(
                                            metric_threshold, 1));
  DeviceResult& result = slot.result;
  result.false_negative_fraction.observe(metrics.false_negative_fraction());
  result.false_positive_percentage.observe(
      metrics.false_positive_percentage);
  result.avg_error_over_threshold.observe(
      metrics.avg_error_over_threshold);
  result.entries_used.observe(static_cast<double>(report.entries_used));
  result.max_entries_used =
      std::max(result.max_entries_used, report.entries_used);
  result.final_threshold = slot.device->threshold();
  if (!report.shards.empty()) {
    result.shards.resize(report.shards.size());
    for (std::size_t s = 0; s < report.shards.size(); ++s) {
      const core::ShardStatus& status = report.shards[s];
      DeviceResult::ShardTrack& track = result.shards[s];
      track.final_threshold = status.next_threshold;
      track.final_usage = status.smoothed_usage;
      track.usage.observe(status.smoothed_usage);
      track.max_entries_used =
          std::max(track.max_entries_used, status.entries_used);
      track.packets += status.packets;
      track.bytes += status.bytes;
    }
  }
  if (slot.groups) {
    slot.groups->observe(report, truth_);
  }
  if (options_.record_time_series) {
    TimePoint point;
    point.interval = report.interval;
    point.threshold = device_threshold;
    point.entries_used = report.entries_used;
    point.false_negative_fraction = metrics.false_negative_fraction();
    point.false_positive_percentage =
        metrics.false_positive_percentage;
    point.avg_error_over_threshold = metrics.avg_error_over_threshold;
    result.time_series.push_back(point);
  }
}

void Driver::observe_interval(
    std::span<const packet::PacketRecord> packets) {
  const telemetry::ScopedTimer interval_timer(tm_interval_ns_);
  // Classify once; every device sees the identical classified stream.
  classified_.clear();
  classified_.reserve(packets.size());
  truth_.clear();
  for (const auto& packet : packets) {
    if (const auto key = definition_.classify(packet)) {
      classified_.push_back({*key, packet.size_bytes});
      truth_[*key] += packet.size_bytes;
    }
  }

  const bool evaluated = interval_index_ >= options_.warmup_intervals;
  for (DeviceSlot& slot : devices_) {
    process_slot(slot, evaluated);
  }
  if (tm_intervals_ != nullptr) {
    tm_intervals_->increment();
    tm_packets_->add(classified_.size());
    // Interval-aligned snapshot: every device has closed its interval,
    // so the registry state is a consistent end-of-interval view.
    if (options_.snapshot_sink) {
      options_.snapshot_sink(options_.metrics->snapshot(interval_index_));
    }
  }
  ++interval_index_;
}

void Driver::run(trace::TraceSynthesizer& synthesizer) {
  while (true) {
    const auto packets = synthesizer.next_interval();
    if (packets.empty()) break;
    observe_interval(packets);
  }
}

std::vector<DeviceResult> Driver::results() const {
  std::vector<DeviceResult> out;
  out.reserve(devices_.size());
  for (const DeviceSlot& slot : devices_) {
    DeviceResult result = slot.result;
    result.packets = slot.device->packets_processed();
    result.memory_accesses = slot.device->memory_accesses();
    if (slot.groups) {
      result.groups = slot.groups->results();
    }
    out.push_back(std::move(result));
  }
  return out;
}

DeviceResult run_single(core::MeasurementDevice& device,
                        const trace::TraceConfig& config,
                        const packet::FlowDefinition& definition,
                        const DriverOptions& options) {
  Driver driver(definition, options);
  driver.add_device(device.name(), device);
  trace::TraceSynthesizer synthesizer(config);
  driver.run(synthesizer);
  return driver.results().front();
}

std::string shard_table(const DeviceResult& result) {
  if (result.shards.empty()) return {};
  std::uint64_t total_packets = 0;
  std::uint64_t max_packets = 0;
  common::ByteCount total_bytes = 0;
  common::ByteCount max_bytes = 0;
  for (const DeviceResult::ShardTrack& track : result.shards) {
    total_packets += track.packets;
    total_bytes += track.bytes;
    max_packets = std::max(max_packets, track.packets);
    max_bytes = std::max(max_bytes, track.bytes);
  }

  TextTable table({"Shard", "Final threshold", "Mean usage", "Max entries",
                   "Packets", "Bytes", "Share"});
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    const DeviceResult::ShardTrack& track = result.shards[s];
    const double share =
        total_packets == 0
            ? 0.0
            : static_cast<double>(track.packets) /
                  static_cast<double>(total_packets);
    table.add_row({std::to_string(s),
                   common::format_bytes(track.final_threshold),
                   common::format_percent(track.usage.value(), 1),
                   common::format_count(track.max_entries_used),
                   common::format_count(track.packets),
                   common::format_bytes(track.bytes),
                   common::format_percent(share, 1)});
  }

  std::string out = table.to_string();
  if (total_packets > 0 && total_bytes > 0) {
    const double shards = static_cast<double>(result.shards.size());
    char line[96];
    std::snprintf(line, sizeof(line),
                  "load imbalance (max/mean): packets %.2f, bytes %.2f\n",
                  static_cast<double>(max_packets) /
                      (static_cast<double>(total_packets) / shards),
                  static_cast<double>(max_bytes) /
                      (static_cast<double>(total_bytes) / shards));
    out += line;
  }
  return out;
}

}  // namespace nd::eval
