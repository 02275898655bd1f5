// Multistage filters (Section 3.2) with every optimization of
// Section 3.3: parallel and serial variants, conservative update,
// shielding, and entry preservation / early removal.
//
// A parallel filter hashes each packet's flow ID with d independent hash
// functions into d counter arrays of b buckets; the packet's flow enters
// the flow memory only when all d counters reach the threshold T. This
// guarantees NO false negatives (a flow that sends T bytes drives all its
// counters to T) while the stages attenuate false positives
// exponentially (Lemma 1).
//
// The serial variant chains the stages: each stage sees only packets that
// passed the previous one, with a per-stage threshold of T/d.
//
// Conservative update (Section 3.3.2) makes two changes:
//   1. (parallel, non-passing packets) only the minimum counter is
//      incremented normally; the others are raised at most to the new
//      minimum — never decremented, so no false negatives are introduced;
//   2. (both variants) a packet that passes into the flow memory does
//      not update any counter, leaving the counters low for other flows.
//
// Shielding (Section 3.3.1): packets of flows that already have a flow
// memory entry bypass the filter entirely, so long-lived large flows stop
// inflating the counters after their first interval.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "core/device_telemetry.hpp"
#include "flowmem/flow_memory.hpp"
#include "hash/hash.hpp"

namespace nd::core {

struct MultistageFilterConfig {
  std::size_t flow_memory_entries{4096};
  /// d — number of stages.
  std::uint32_t depth{4};
  /// b — counters per stage.
  std::uint32_t buckets_per_stage{1000};
  /// T — large-flow threshold in bytes per interval.
  common::ByteCount threshold{1'000'000};
  bool serial{false};
  bool conservative_update{true};
  bool shielding{true};
  flowmem::PreservePolicy preserve{flowmem::PreservePolicy::kClear};
  double early_removal_fraction{0.15};
  std::uint64_t seed{1};
  /// Export runtime telemetry into this registry (not owned; must
  /// outlive the device). Null — the default — compiles the hot path
  /// down to one predictable branch per packet.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Extra labels for every series (e.g. {{"shard", "3"}}).
  telemetry::Labels metric_labels{};
};

class MultistageFilter final : public MeasurementDevice {
 public:
  explicit MultistageFilter(const MultistageFilterConfig& config);

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override;
  Report end_interval() override;

  [[nodiscard]] std::string name() const override {
    return config_.serial ? "serial-multistage-filter"
                          : "multistage-filter";
  }
  [[nodiscard]] common::ByteCount threshold() const override {
    return config_.threshold;
  }
  void set_threshold(common::ByteCount threshold) override;
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return config_.flow_memory_entries;
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return memory_.memory_accesses() + counter_accesses_;
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return packets_;
  }

  /// Full-state checkpointing: threshold, stage counters, and the flow
  /// memory's exact slot layout round-trip (the stage hashes are
  /// reconstructed from the seed), so a resumed filter replays the
  /// remaining packets bit for bit.
  [[nodiscard]] bool can_checkpoint() const override { return true; }
  void save_state(common::StateWriter& out) const override;
  void restore_state(common::StateReader& in) override;

  /// Flows that passed the filter but found the flow memory full.
  [[nodiscard]] std::uint64_t dropped_passes() const {
    return dropped_passes_;
  }
  /// Counter value at (stage, bucket) — exposed for tests/diagnostics.
  [[nodiscard]] common::ByteCount counter(std::uint32_t stage,
                                          std::uint64_t bucket) const {
    return stages_[stage_offset(stage) + static_cast<std::size_t>(bucket)];
  }
  [[nodiscard]] const MultistageFilterConfig& config() const {
    return config_;
  }

 private:
  /// The stage paths for a packet that missed the flow memory;
  /// `buckets` holds its d stage bucket indices.
  void observe_parallel(const packet::FlowKey& key,
                        std::uint32_t bytes,
                        const std::uint64_t* buckets);
  void observe_serial(const packet::FlowKey& key, std::uint32_t bytes,
                      const std::uint64_t* buckets);
  void admit(const packet::FlowKey& key, std::uint32_t bytes);

  MultistageFilterConfig config_;
  flowmem::FlowMemory memory_;
  DeviceInstruments tm_;
  /// Per-stage pass counters (nd_filter_stage_pass_total{stage="d"})
  /// and their interval tallies, published at end_interval(); both
  /// empty when telemetry is off.
  std::vector<telemetry::Counter*> tm_stage_pass_;
  std::vector<std::uint64_t> stage_pass_tally_;
  /// Packets shielded by an existing flow-memory entry: with shielding
  /// on, every flow-memory hit; published from the hit tally.
  telemetry::Counter* tm_shielded_{nullptr};
  /// First index of stage d's row in the flat counter array.
  [[nodiscard]] std::size_t stage_offset(std::uint32_t stage) const {
    return static_cast<std::size_t>(stage) * config_.buckets_per_stage;
  }
  /// Counter at (stage, bucket) in the flat array.
  [[nodiscard]] common::ByteCount& stage_at(std::uint32_t stage,
                                            std::uint64_t bucket) {
    return stages_[stage_offset(stage) + static_cast<std::size_t>(bucket)];
  }

  /// The d stage hashes, evaluated bank-at-a-time (interleaved
  /// tabulation tables; see hash::StageHashBank).
  hash::StageHashBank hashes_;
  /// All depth stages in one contiguous row-major block (row stride =
  /// buckets_per_stage): a counter access is a single indexed load,
  /// not a chase through a per-stage vector header.
  std::vector<common::ByteCount> stages_;
  /// Scratch bucket indices, sized depth (avoids per-packet allocation).
  std::vector<std::uint64_t> bucket_scratch_;
  common::ByteCount serial_stage_threshold_{0};
  common::IntervalIndex interval_{0};
  std::uint64_t packets_{0};
  std::uint64_t counter_accesses_{0};
  std::uint64_t dropped_passes_{0};
};

}  // namespace nd::core
