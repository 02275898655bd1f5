// Runtime telemetry for the measurement pipeline: named lock-free
// counters/gauges and log-bucketed (HDR-style) histograms behind a
// MetricsRegistry, with interval-aligned snapshots aggregated on read.
//
// The overhead contract mirrors the hardware pipelines this repo models
// (HashPipe, PRECISION treat per-stage counters as first-class outputs
// of the data plane):
//
//   * packet path: no instrument is touched per packet. Devices add
//     into plain per-interval tallies they own (core/device_telemetry.hpp)
//     and publish them at interval close, one relaxed add per series,
//     so device series advance at interval close like every other
//     series here. Turning the registry on costs 3-8% per packet
//     (BM_X vs BM_XTelemetry in bench/perf_per_packet.cpp).
//   * publish path: an update is one relaxed atomic add — no locks, no
//     allocation. Writers on different shards add into the same
//     Counter safely; nothing is aggregated until a snapshot is taken.
//   * off path: every instrumented component holds plain pointers that
//     are nullptr when it was constructed without a registry; the
//     disabled cost is one predictable branch per update site.
//   * cold path: registration and snapshotting take a mutex; they run
//     at construction and interval boundaries, never per packet.
//
// Snapshots order metrics by (name, labels) so exporters (JSON-lines,
// Prometheus text — see telemetry/export.hpp) are deterministic.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nd::telemetry {

/// Sorted (key, value) pairs; the registry canonicalizes order so label
/// sets compare by value.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count. Writers only ever add; relaxed ordering is
/// enough because no reader infers cross-metric ordering from values.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (occupancy, queue depth,
/// effective threshold). Stored as double bits so set/load stay single
/// lock-free atomics.
class Gauge {
 public:
  void set(double value) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(value),
                std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Log-bucketed histogram: bucket b counts values whose bit width is b,
/// i.e. bucket 0 holds exactly {0} and bucket b >= 1 holds
/// [2^(b-1), 2^b - 1]. One relaxed increment plus one relaxed add per
/// record; count is derived from the buckets at snapshot time
/// (aggregate on read), so record() never maintains redundant totals.
class Histogram {
 public:
  /// 64-bit values have bit widths 0..64.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t value) noexcept {
    buckets_[std::bit_width(value)].fetch_add(1,
                                              std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Aggregation entry points (fleet rollups merge exported snapshots
  /// back into a registry): add `count` observations to bucket `bucket`
  /// and `delta` to the running sum, without re-deriving values.
  void add_bucket(std::size_t bucket, std::uint64_t count) noexcept {
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
        count, std::memory_order_relaxed);
  }
  void add_sum(std::uint64_t delta) noexcept {
    sum_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Bucket index holding `upper_bound(b)` — the inverse of
  /// upper_bound(), used when merging exported (bound, count) pairs.
  [[nodiscard]] static std::size_t bucket_of_bound(
      std::uint64_t bound) noexcept {
    return std::bit_width(bound);
  }

  /// Inclusive upper bound of bucket b (0, 1, 3, 7, ..., 2^63-1, 2^64-1).
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t bucket) {
    return bucket >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << bucket) - 1;
  }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Total recorded values, summed over the buckets on read.
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Records the elapsed nanoseconds of a scope into a histogram; a null
/// histogram skips even the clock reads, so disabled spans cost one
/// branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept
      : histogram_(histogram) {
    if (histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time aggregate of a registry, ordered by (name, labels).
/// Exporters consume this; nothing here aliases live registry state.
struct Snapshot {
  struct HistogramValue {
    std::uint64_t count{0};
    std::uint64_t sum{0};
    /// Non-empty buckets as (inclusive upper bound, count), ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  struct Sample {
    std::string name;
    Labels labels;
    MetricKind kind{MetricKind::kCounter};
    std::uint64_t counter_value{0};
    double gauge_value{0.0};
    HistogramValue histogram;
  };

  /// The measurement interval the snapshot is aligned to.
  std::uint64_t interval{0};
  std::vector<Sample> samples;

  [[nodiscard]] const Sample* find(std::string_view name,
                                   const Labels& labels = {}) const;
};

/// Owns every instrument. Handles returned by counter()/gauge()/
/// histogram() are stable for the registry's lifetime and deduplicated
/// by (name, labels): two shards asking for the same series share one
/// atomic, which is exactly how per-shard sinks aggregate. Metric names
/// must match [a-zA-Z_:][a-zA-Z0-9_:]* (the Prometheus exposition
/// grammar); label names [a-zA-Z_][a-zA-Z0-9_]*. Violations and
/// kind mismatches throw std::invalid_argument at registration time —
/// never on the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string name, Labels labels = {});
  [[nodiscard]] Gauge& gauge(std::string name, Labels labels = {});
  [[nodiscard]] Histogram& histogram(std::string name, Labels labels = {});

  /// Aggregate-on-read: loads every instrument once (relaxed) and
  /// returns values ordered by (name, labels). `interval` stamps the
  /// snapshot for interval-aligned exporters.
  ///
  /// Snapshots are generation-consistent: a writer that wraps its
  /// related updates in begin_update()/end_update() (or
  /// ScopedRegistryUpdate) is never observed halfway — snapshot()
  /// retries until it reads a quiescent generation, so a counter can't
  /// be paired with a stale gauge written in the same interval close.
  [[nodiscard]] Snapshot snapshot(std::uint64_t interval = 0) const;

  /// Seqlock-style update guard for multi-instrument writes that must
  /// appear atomically in snapshots (e.g. the per-interval counter +
  /// gauge mirror at end_interval). One writer at a time; the guarded
  /// section must not snapshot. Hot-path single-instrument updates do
  /// NOT need this.
  void begin_update() noexcept {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  void end_update() noexcept {
    generation_.fetch_add(1, std::memory_order_release);
  }
  /// Even = quiescent, odd = an update is in flight.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string name, Labels labels, MetricKind kind);
  /// One unguarded pass over the entries (the seqlock read body).
  void read_samples(Snapshot& snapshot) const;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::atomic<std::uint64_t> generation_{0};
};

/// RAII begin_update()/end_update(); a null registry costs one branch,
/// matching the rest of the disabled-telemetry contract.
class ScopedRegistryUpdate {
 public:
  explicit ScopedRegistryUpdate(MetricsRegistry* registry) noexcept
      : registry_(registry) {
    if (registry_ != nullptr) registry_->begin_update();
  }
  ~ScopedRegistryUpdate() {
    if (registry_ != nullptr) registry_->end_update();
  }
  ScopedRegistryUpdate(const ScopedRegistryUpdate&) = delete;
  ScopedRegistryUpdate& operator=(const ScopedRegistryUpdate&) = delete;

 private:
  MetricsRegistry* registry_;
};

}  // namespace nd::telemetry
