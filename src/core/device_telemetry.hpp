// Telemetry handles and interval tallies shared by the measurement
// devices.
//
// A device constructed without a registry leaves every pointer null and
// pays exactly one predictable branch per update site (`enabled()`).
// With a registry attached the packet path touches no atomic at all: it
// adds into plain per-device tallies, and end_interval() publishes them
// into the registry once (one relaxed add per series) and zeroes them.
// Device series therefore advance at interval close, the same cadence
// as the session and shard series: a scrape between closes sees them as
// of the last closed interval. All registration happens at
// construction, so replicas asking for the same (name, labels) series
// share one instrument and aggregate at publish.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "telemetry/metrics.hpp"

namespace nd::core {

class DeviceInstruments {
 public:
  [[nodiscard]] bool enabled() const { return packets_ != nullptr; }

  /// Register the standard device series under `labels` plus a
  /// device="<name>" tag. A null registry returns all-null handles.
  static DeviceInstruments attach(telemetry::MetricsRegistry* registry,
                                  telemetry::Labels labels,
                                  const std::string& device_name) {
    DeviceInstruments tm;
    if (registry == nullptr) return tm;
    labels.emplace_back("device", device_name);
    tm.packets_ = &registry->counter("nd_device_packets_total", labels);
    tm.bytes_ = &registry->counter("nd_device_bytes_total", labels);
    tm.packet_size_ =
        &registry->histogram("nd_device_packet_size_bytes", labels);
    tm.flowmem_hits_ = &registry->counter("nd_flowmem_hits_total", labels);
    tm.flowmem_inserts_ =
        &registry->counter("nd_flowmem_inserts_total", labels);
    tm.flowmem_insert_drops_ =
        &registry->counter("nd_flowmem_insert_drops_total", labels);
    tm.flowmem_evictions_ =
        &registry->counter("nd_flowmem_evictions_total", labels);
    tm.intervals_ = &registry->counter("nd_device_intervals_total", labels);
    tm.flowmem_occupancy_ =
        &registry->gauge("nd_flowmem_occupancy", labels);
    tm.threshold_ = &registry->gauge("nd_device_threshold", labels);
    return tm;
  }

  // Packet path: plain adds into the interval tallies; call only when
  // enabled(). The packet count is the histogram's bucket total and the
  // byte count its sum, so a packet costs two adds.
  void on_packet(std::uint32_t packet_bytes) {
    ++size_buckets_[std::bit_width(packet_bytes)];
    bytes_tally_ += packet_bytes;
  }
  void on_hit() { ++hits_tally_; }
  void on_insert() { ++inserts_tally_; }
  void on_insert_drop() { ++insert_drops_tally_; }
  /// Flow-memory hits so far this interval (not yet published).
  [[nodiscard]] std::uint64_t interval_hits() const { return hits_tally_; }

  /// Interval close: publish the tallies and zero them, then set the
  /// per-interval series. Occupancy is the pre-cleanup usage the
  /// threshold adaptor steers on; `evicted` the entries the
  /// end-of-interval policy removed.
  void on_end_interval(std::size_t entries_used, std::size_t capacity,
                       std::size_t evicted,
                       std::uint64_t current_threshold) {
    if (!enabled()) return;
    std::uint64_t packets = 0;
    for (std::size_t b = 0; b < size_buckets_.size(); ++b) {
      if (size_buckets_[b] == 0) continue;
      packet_size_->add_bucket(b, size_buckets_[b]);
      packets += size_buckets_[b];
    }
    packet_size_->add_sum(bytes_tally_);
    packets_->add(packets);
    bytes_->add(bytes_tally_);
    flowmem_hits_->add(hits_tally_);
    flowmem_inserts_->add(inserts_tally_);
    flowmem_insert_drops_->add(insert_drops_tally_);
    size_buckets_.fill(0);
    bytes_tally_ = hits_tally_ = inserts_tally_ = insert_drops_tally_ = 0;

    intervals_->increment();
    flowmem_evictions_->add(evicted);
    flowmem_occupancy_->set(capacity == 0
                                ? 0.0
                                : static_cast<double>(entries_used) /
                                      static_cast<double>(capacity));
    threshold_->set(static_cast<double>(current_threshold));
  }

 private:
  telemetry::Counter* packets_{nullptr};
  telemetry::Counter* bytes_{nullptr};
  telemetry::Histogram* packet_size_{nullptr};
  telemetry::Counter* flowmem_hits_{nullptr};
  telemetry::Counter* flowmem_inserts_{nullptr};
  telemetry::Counter* flowmem_insert_drops_{nullptr};
  telemetry::Counter* flowmem_evictions_{nullptr};
  telemetry::Counter* intervals_{nullptr};
  telemetry::Gauge* flowmem_occupancy_{nullptr};
  telemetry::Gauge* threshold_{nullptr};

  /// Packet-size buckets of the interval, indexed like Histogram's
  /// (bit width); a 32-bit size needs widths 0..32 only.
  std::array<std::uint64_t, std::numeric_limits<std::uint32_t>::digits + 1>
      size_buckets_{};
  std::uint64_t bytes_tally_{0};
  std::uint64_t hits_tally_{0};
  std::uint64_t inserts_tally_{0};
  std::uint64_t insert_drops_tally_{0};
};

}  // namespace nd::core
