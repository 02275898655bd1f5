// ShardedDevice: RSS-style partitioning of the flow space across N
// replicas of an inner measurement device.
//
// Hardware heavy-hitter pipelines (HashPipe, PRECISION) get their speed
// from partitioned, pipelined processing; the software analogue is
// receive-side scaling: hash each packet's flow fingerprint to one of N
// shards and let each shard run an independent, smaller device. Because
// the mapping is by flow, every packet of a flow lands on the same shard
// and per-shard results are exact partitions of the unsharded problem —
// merging the N per-shard reports at end_interval() yields one report
// over the whole flow space.
//
// Determinism contract: for a fixed shard count the merged output is a
// pure function of the input stream — shard routing is a seeded hash of
// the flow fingerprint, each shard owns a deterministic per-shard seed,
// each shard sees its flows' packets in arrival order, and reports are
// merged in shard order. Shards never talk between interval closes, so
// the packet path runs on the caller: observe() routes one packet to
// its shard.
// Only the interval close forks: with a ThreadPool attached, shards
// 1..N-1 close on the pool while shard 0 closes on the caller. The pool
// changes wall clock only, never output; the repeated-run determinism
// test enforces this. Per-shard threshold adaptation (Section 6 run once
// per replica) keeps that determinism — the adaptors are fed the
// deterministic per-shard usage — but intentionally breaks bit-equality
// with a globally-adapted scalar device: each shard carries its own
// threshold into the next interval, so the merged report is only
// bound-checked (no false negatives above the effective threshold,
// usage steered into the target band) against the scalar adaptive path.
// The differential harness (tests/support/differential_harness.hpp)
// pins down both halves of this contract.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/device.hpp"
#include "core/threshold_adaptor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::core {

/// A shard failed to close its interval; carries the shard index so the
/// operator knows which replica to look at. end_interval closes (and
/// joins) every shard before throwing, so no task is left running
/// against freed state and the shards' interval counters stay aligned.
class ShardError : public std::runtime_error {
 public:
  ShardError(std::uint32_t shard, const std::string& reason)
      : std::runtime_error("shard " + std::to_string(shard) + ": " +
                           reason),
        shard_(shard) {}

  [[nodiscard]] std::uint32_t shard() const { return shard_; }

 private:
  std::uint32_t shard_;
};

struct ShardedDeviceConfig {
  std::uint32_t shards{8};
  /// Salts the fingerprint->shard routing hash and derives the
  /// per-shard seeds handed to the factory.
  std::uint64_t seed{1};
  /// Worker pool for the interval close; nullptr closes every shard on
  /// the calling thread. Not owned; must outlive the device.
  common::ThreadPool* pool{nullptr};
  /// When set, every shard runs a private ThresholdAdaptor on its own
  /// entries_used/capacity at interval boundaries and carries a
  /// heterogeneous threshold into the next interval. Unset reproduces
  /// the uniform-threshold device bit for bit.
  std::optional<ThresholdAdaptorConfig> adaptor{};
  /// Export runtime telemetry into this registry (not owned; must
  /// outlive the device). The sharded layer mirrors its always-on
  /// per-shard tallies once per interval — the packet path never
  /// touches an atomic, so a null registry costs literally nothing.
  /// Inner-device telemetry is the factory's business: pass the same
  /// registry with {"shard", "<s>"} labels to the replica configs.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional trace recorder (not owned): a span per end_interval
  /// merge. Null — the default — records nothing.
  telemetry::TraceRecorder* trace{nullptr};
};

class ShardedDevice final : public MeasurementDevice {
 public:
  /// Builds the replica for `shard`; `shard_seed` is a deterministic
  /// per-shard seed derived from ShardedDeviceConfig::seed. A factory
  /// for a 1-shard device may ignore `shard_seed` to reproduce an
  /// unsharded device bit-for-bit.
  using Factory = std::function<std::unique_ptr<MeasurementDevice>(
      std::uint32_t shard, std::uint64_t shard_seed)>;

  ShardedDevice(const ShardedDeviceConfig& config, const Factory& factory);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  Report end_interval() override;

  [[nodiscard]] std::string name() const override;
  /// The effective threshold: the maximum per-shard threshold. A flow
  /// above it clears the threshold of whichever shard it routes to, so
  /// the no-false-negative guarantee and metrics/dimensioning carry
  /// over unchanged from the scalar device. Without adaptation the
  /// thresholds are uniform and this is exactly the shared threshold.
  [[nodiscard]] common::ByteCount threshold() const override;
  /// Records `threshold` as every shard's manual baseline and restarts
  /// the per-shard adaptors (when adaptive) from it, so operator
  /// overrides and adaptation compose: the override takes effect
  /// immediately and adaptation steers from there instead of snapping
  /// back to stale usage history.
  void set_threshold(common::ByteCount threshold) override;
  [[nodiscard]] std::size_t flow_memory_capacity() const override;
  [[nodiscard]] std::uint64_t memory_accesses() const override;
  [[nodiscard]] std::uint64_t packets_processed() const override;

  /// Checkpointable iff every replica is.
  [[nodiscard]] bool can_checkpoint() const override;
  void save_state(common::StateWriter& out) const override;
  void restore_state(common::StateReader& in) override;

  [[nodiscard]] bool adaptive() const { return !adaptors_.empty(); }
  /// The shard's private adaptor; only valid when adaptive().
  [[nodiscard]] const ThresholdAdaptor& shard_adaptor(
      std::uint32_t index) const {
    return adaptors_[index];
  }
  /// The per-shard manual baseline recorded by the last set_threshold
  /// (initially each replica's configured threshold). Adaptation
  /// floors itself here via the adaptor's min_threshold, never below.
  [[nodiscard]] const std::vector<common::ByteCount>& baseline_thresholds()
      const {
    return baseline_thresholds_;
  }

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Which shard a flow fingerprint routes to, in [0, shard_count()).
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t fingerprint) const {
    return shard_route(route_salt_, shards_.size(), fingerprint);
  }
  [[nodiscard]] const MeasurementDevice& shard(std::uint32_t index) const {
    return *shards_[index];
  }

 private:
  std::vector<std::unique_ptr<MeasurementDevice>> shards_;
  /// Always-on per-interval packet/byte tallies, indexed by shard.
  /// Updated on the caller's thread by observe, reset at end_interval;
  /// they fill ShardStatus::packets/bytes and feed the telemetry mirror.
  std::vector<std::uint64_t> interval_packets_;
  std::vector<common::ByteCount> interval_bytes_;
  /// Telemetry handles; null/empty when no registry. Written only at
  /// end_interval (interval deltas added to counters, gauges set).
  std::vector<telemetry::Counter*> tm_shard_packets_;
  std::vector<telemetry::Counter*> tm_shard_bytes_;
  std::vector<telemetry::Gauge*> tm_shard_threshold_;
  std::vector<telemetry::Gauge*> tm_shard_occupancy_;
  telemetry::Counter* tm_intervals_{nullptr};
  telemetry::Counter* tm_threshold_raises_{nullptr};
  telemetry::Counter* tm_threshold_lowers_{nullptr};
  telemetry::Gauge* tm_effective_threshold_{nullptr};
  telemetry::Histogram* tm_merge_ns_{nullptr};
  /// shard_route_salt(config.seed), cached for the per-packet route.
  std::uint64_t route_salt_;
  common::ThreadPool* pool_;
  /// One private adaptor per shard when adaptation is on; empty
  /// otherwise.
  std::vector<ThresholdAdaptor> adaptors_;
  /// Per-shard manual baseline (see baseline_thresholds()).
  std::vector<common::ByteCount> baseline_thresholds_;
  /// Each shard's threshold as of the last merge (or set_threshold); kept
  /// in the checkpoint (layout v1).
  std::vector<common::ByteCount> last_thresholds_;
  /// Index of the next interval to close; stamps the merged report.
  common::IntervalIndex interval_index_{0};
  telemetry::TraceRecorder* trace_{nullptr};
  /// Registry backing the handles above; kept so the end-of-interval
  /// mirror can publish under one generation stamp.
  telemetry::MetricsRegistry* metrics_{nullptr};
};

/// Deterministic per-shard seed derivation (exposed for tests).
[[nodiscard]] std::uint64_t shard_seed(std::uint64_t base_seed,
                                       std::uint32_t shard);

}  // namespace nd::core
