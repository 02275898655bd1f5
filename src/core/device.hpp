// The uniform interface all traffic measurement devices implement.
//
// A device observes every packet of a measurement interval (already
// classified to a FlowKey by a packet::FlowDefinition) and, at the end of
// the interval, reports the flows it measured — mirroring the paper's
// model where the router sends per-interval reports to a management
// station (Section 5.2 normalizes NetFlow to this model too).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/state_buffer.hpp"
#include "common/types.hpp"
#include "hash/hash.hpp"
#include "packet/flow_key.hpp"

namespace nd::core {

struct ReportedFlow {
  packet::FlowKey key;
  /// The device's estimate of the flow's bytes in the interval.
  common::ByteCount estimated_bytes{0};
  /// True when the device measured the flow exactly for the whole
  /// interval (entry preserved from a previous interval — Section 3.3.1).
  bool exact{false};
};

/// Per-shard annotation a ShardedDevice attaches to its merged report.
/// Unsharded devices leave Report::shards empty.
struct ShardStatus {
  /// Threshold the shard operated with during the reported interval.
  common::ByteCount threshold{0};
  /// Threshold the shard carries into the next interval. Equals
  /// `threshold` unless per-shard adaptation is enabled.
  common::ByteCount next_threshold{0};
  /// The shard adaptor's moving-average usage; for non-adaptive shards
  /// this is the instantaneous entries_used / capacity of the interval.
  double smoothed_usage{0.0};
  std::size_t entries_used{0};
  std::size_t capacity{0};
  /// Packets/bytes this shard received during the interval (always
  /// tracked by ShardedDevice; zero for unsharded reports). These are
  /// what the load-imbalance diagnostics summarize.
  std::uint64_t packets{0};
  common::ByteCount bytes{0};
};

struct Report {
  common::IntervalIndex interval{0};
  std::vector<ReportedFlow> flows;
  /// Flow-memory entries in use when the interval ended (the usage the
  /// threshold adaptor steers on).
  std::size_t entries_used{0};
  /// Threshold the device operated with during this interval (devices
  /// without a threshold report 0). For sharded reports with
  /// heterogeneous per-shard thresholds this is the *effective*
  /// threshold — see effective_threshold() below.
  common::ByteCount threshold{0};
  /// Per-shard breakdown (empty for unsharded devices). entries_used is
  /// the sum of the per-shard entries; threshold is the effective
  /// threshold over the per-shard ones.
  std::vector<ShardStatus> shards;
};

/// Sort a report's flows by descending estimated size (stable for ties).
/// Already-sorted input is left as it is after one linear check.
void sort_by_size(Report& report);

/// Appends one flow's line of the `ndtm measure` listing to `out`:
/// "  <key padded to 45 columns> <bytes right-aligned in 14>" plus
/// "  (exact)" for an exactly measured flow, then a newline.
void append_flow_line(std::string& out, const ReportedFlow& flow);

/// Find a flow in a report; nullptr when absent.
[[nodiscard]] const ReportedFlow* find_flow(const Report& report,
                                            const packet::FlowKey& key);

/// The threshold above which the report's no-false-negative guarantee
/// holds for every flow regardless of shard placement: the maximum
/// per-shard threshold, or Report::threshold for unsharded reports.
/// Metrics and dimensioning treat it exactly like a scalar device's
/// threshold — a flow above it clears the threshold of whichever shard
/// it routes to.
[[nodiscard]] common::ByteCount effective_threshold(const Report& report);

/// The ShardStatus a non-adaptive merge derives for one member report:
/// threshold carried forward unchanged, smoothed usage = instantaneous
/// entries/capacity. ShardedDevice uses this for every shard (its
/// adaptor then overrides next_threshold/smoothed_usage); a fleet
/// member (net::FleetSliceDevice) uses it to annotate the report it
/// ships to a collector, so the two paths stay bit-identical by
/// construction.
[[nodiscard]] ShardStatus make_shard_status(const Report& report,
                                            std::size_t capacity,
                                            std::uint64_t packets,
                                            common::ByteCount bytes);

/// The bit-deterministic shard/fleet merge: combine per-member interval
/// reports (each already annotated with its own ShardStatus entries, in
/// member order) into one report — shards concatenated, flows
/// concatenated in member order, threshold = max per-member status
/// threshold, entries_used = sum. ShardedDevice::end_interval and the
/// collector daemon's fleet-merge stage share this function, which is
/// what makes a fleet of M devices merge bit-identically to one
/// M-sharded device over the same partitioned traffic.
[[nodiscard]] Report merge_member_reports(common::IntervalIndex interval,
                                          std::span<const Report> members);

/// The routing salt shard_route mixes into every fingerprint, derived
/// once from the ShardedDevice (or fleet) seed; callers cache it.
[[nodiscard]] constexpr std::uint64_t shard_route_salt(std::uint64_t seed) {
  return hash::splitmix64(seed ^ 0x5AD0FF5E7ULL);
}

/// The RSS-style flow->shard routing ShardedDevice uses, shared with a
/// measurement fleet so it partitions traffic across separate processes
/// exactly as one sharded device would across replicas: splitmix the
/// salted fingerprint, reduce to [0, shards). Splitmixing keeps shard
/// routing uncorrelated with the inner devices' stage hashes and
/// flow-memory placement.
[[nodiscard]] constexpr std::uint32_t shard_route(std::uint64_t salt,
                                                  std::uint64_t shards,
                                                  std::uint64_t fingerprint) {
  return static_cast<std::uint32_t>(
      hash::reduce_to_range(hash::splitmix64(fingerprint ^ salt), shards));
}

class MeasurementDevice {
 public:
  virtual ~MeasurementDevice() = default;

  /// Process one packet of `bytes` bytes belonging to flow `key`. This
  /// is a device's only packet entry point; callers feed packets one at
  /// a time, in arrival order.
  virtual void observe(const packet::FlowKey& key, std::uint32_t bytes) = 0;

  /// Close the current measurement interval and report.
  virtual Report end_interval() = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Current large-flow threshold (0 for devices without one). The
  /// threshold adaptor (Section 6) drives set_threshold between
  /// intervals.
  [[nodiscard]] virtual common::ByteCount threshold() const = 0;
  virtual void set_threshold(common::ByteCount threshold) = 0;

  /// Flow-memory capacity in entries (SIZE_MAX-like large value for the
  /// unbounded DRAM baselines).
  [[nodiscard]] virtual std::size_t flow_memory_capacity() const = 0;

  /// Total memory (counter/entry) accesses and packets processed, for
  /// the per-packet access accounting of Tables 1 and 2.
  [[nodiscard]] virtual std::uint64_t memory_accesses() const = 0;
  [[nodiscard]] virtual std::uint64_t packets_processed() const = 0;

  /// Crash-safe checkpoint support (MeasurementSession::checkpoint).
  /// A device returning true from can_checkpoint() serializes its full
  /// cross-interval state — flow-memory slot layout, RNG engines,
  /// thresholds, adaptor history — such that restore_state() into a
  /// freshly constructed device with the identical configuration
  /// reproduces bit-identical reports from that point on. The defaults
  /// decline: baselines without a serialization story stay honest
  /// instead of silently resuming wrong.
  [[nodiscard]] virtual bool can_checkpoint() const { return false; }
  virtual void save_state(common::StateWriter& out) const {
    (void)out;
    throw common::StateError("device does not support checkpointing: " +
                             name());
  }
  virtual void restore_state(common::StateReader& in) {
    (void)in;
    throw common::StateError("device does not support checkpointing: " +
                             name());
  }
};

}  // namespace nd::core
