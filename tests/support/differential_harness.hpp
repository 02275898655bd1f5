// Differential-testing harness for the sharded/scalar device contract.
//
// Replays identical synthesized traces, packet by packet, through the
// three device configurations the pipeline supports —
//
//   kScalar          the unsharded device
//   kShardedUniform  ShardedDevice, one fixed threshold everywhere
//   kShardedAdaptive ShardedDevice, a private ThresholdAdaptor per shard
//
// — and provides the assertions that define the contract between them:
//
//   (a) bit-identical reports wherever equality is still promised
//       (same-seed repetitions; sharded runs across pools);
//   (b) paper-derived bounds where it is not: heterogeneous per-shard
//       thresholds intentionally break bit-equality with the globally
//       adapted scalar device, so the adaptive configurations are
//       checked against Section 4's no-false-negative guarantee above
//       the effective (max per-shard) threshold and Section 6's target
//       usage band instead.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/adaptive_device.hpp"
#include "core/device.hpp"
#include "core/sharded_device.hpp"
#include "core/threshold_adaptor.hpp"
#include "eval/metrics.hpp"
#include "report_testing.hpp"

namespace nd::testing {

/// A classified trace plus exact per-interval ground truth — every
/// configuration replays exactly this stream.
struct DifferentialTrace {
  std::vector<std::vector<packet::ClassifiedPacket>> intervals;
  std::vector<eval::TruthMap> truth;
};

inline DifferentialTrace make_differential_trace(
    const trace::TraceConfig& config,
    const packet::FlowDefinition& definition) {
  DifferentialTrace out;
  out.intervals = classify_trace(config, definition);
  out.truth.reserve(out.intervals.size());
  for (const auto& interval : out.intervals) {
    eval::TruthMap truth;
    for (const auto& packet : interval) {
      truth[packet.key] += packet.bytes;
    }
    out.truth.push_back(std::move(truth));
  }
  return out;
}

/// The paper's multistage adaptor gains (adjust_up 3, patience 3)
/// reproduce Figure 5's visibly oscillating threshold. For tests that
/// assert a *converged* usage band, use this damped variant of the same
/// control rule: loop gain below 1 (the plant's d ln usage / d ln T is
/// about -1 on Zipf traffic, so exponents >= 1 overshoot), a short
/// window to cut feedback lag, and patience 1 so decreases fire as
/// readily as increases (asymmetric patience biases the stationary
/// usage below target under noise).
inline core::ThresholdAdaptorConfig damped_multistage_adaptor() {
  core::ThresholdAdaptorConfig config = core::multistage_adaptor();
  config.adjust_up = 0.5;
  config.adjust_down = 0.25;
  config.usage_window = 3;
  config.patience = 1;
  return config;
}

enum class DeviceMode {
  kScalar,
  kShardedUniform,
  kShardedAdaptive,
};

inline constexpr DeviceMode kAllDeviceModes[] = {
    DeviceMode::kScalar, DeviceMode::kShardedUniform,
    DeviceMode::kShardedAdaptive};

inline const char* mode_name(DeviceMode mode) {
  switch (mode) {
    case DeviceMode::kScalar: return "scalar";
    case DeviceMode::kShardedUniform: return "sharded-uniform";
    case DeviceMode::kShardedAdaptive: return "sharded-adaptive";
  }
  return "?";
}

struct DifferentialConfig {
  std::uint32_t shards{4};
  /// ShardedDevice routing/seeding base; the unsharded modes build
  /// their device from this seed directly.
  std::uint64_t seed{1};
  core::ThresholdAdaptorConfig adaptor = core::multistage_adaptor();
  /// Optional worker pool for the sharded modes (wall clock only).
  common::ThreadPool* pool{nullptr};
  /// Builds the inner device. `shards` is 1 (with shard 0) for the
  /// unsharded mode so the factory can split its memory budget the way
  /// a deployment would.
  std::function<std::unique_ptr<core::MeasurementDevice>(
      std::uint32_t shard, std::uint32_t shards, std::uint64_t seed)>
      factory;
};

inline std::unique_ptr<core::MeasurementDevice> make_device(
    const DifferentialConfig& config, DeviceMode mode) {
  if (mode == DeviceMode::kScalar) {
    return config.factory(0, 1, config.seed);
  }
  core::ShardedDeviceConfig sharded;
  sharded.shards = config.shards;
  sharded.seed = config.seed;
  sharded.pool = config.pool;
  if (mode == DeviceMode::kShardedAdaptive) {
    sharded.adaptor = config.adaptor;
  }
  return std::make_unique<core::ShardedDevice>(
      sharded, [&config](std::uint32_t shard, std::uint64_t seed) {
        return config.factory(shard, config.shards, seed);
      });
}

/// Replay the whole trace packet by packet, one report per interval.
inline std::vector<core::Report> replay(
    core::MeasurementDevice& device,
    const std::vector<std::vector<packet::ClassifiedPacket>>& intervals) {
  std::vector<core::Report> reports;
  reports.reserve(intervals.size());
  for (const auto& interval : intervals) {
    observe_all(device, interval);
    reports.push_back(device.end_interval());
  }
  return reports;
}

inline std::vector<core::Report> run_mode(const DifferentialConfig& config,
                                          const DifferentialTrace& trace,
                                          DeviceMode mode) {
  const auto device = make_device(config, mode);
  return replay(*device, trace.intervals);
}

/// Contract (a): bit-identical interval-by-interval reports, including
/// the per-shard annotations (expect_reports_equal predates them).
inline void expect_equal_series(const std::vector<core::Report>& a,
                                const std::vector<core::Report>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("interval " + std::to_string(i));
    expect_reports_equal(a[i], b[i]);
    ASSERT_EQ(a[i].shards.size(), b[i].shards.size());
    for (std::size_t s = 0; s < a[i].shards.size(); ++s) {
      const core::ShardStatus& lhs = a[i].shards[s];
      const core::ShardStatus& rhs = b[i].shards[s];
      EXPECT_EQ(lhs.threshold, rhs.threshold) << "shard " << s;
      EXPECT_EQ(lhs.next_threshold, rhs.next_threshold) << "shard " << s;
      EXPECT_EQ(lhs.entries_used, rhs.entries_used) << "shard " << s;
      EXPECT_EQ(lhs.capacity, rhs.capacity) << "shard " << s;
      // Determinism promises the same doubles bit for bit.
      EXPECT_EQ(lhs.smoothed_usage, rhs.smoothed_usage) << "shard " << s;
    }
  }
}

/// True when some shard's flow memory filled up during the interval.
/// Entries are only ever added within an interval, so an end-of-interval
/// usage below capacity proves no insertion failed; at capacity, flows
/// that cleared the stages may have been dropped and the deterministic
/// guarantee is void (the paper sizes flow memory — and targets 90%
/// usage — precisely to keep this from happening).
inline bool any_shard_overflowed(const core::Report& report) {
  for (const core::ShardStatus& shard : report.shards) {
    if (shard.entries_used >= shard.capacity) return true;
  }
  return false;
}

/// Contract (b1): no false negatives above the effective threshold — a
/// multistage flow whose true size clears the (max per-shard) threshold
/// of its interval passes the stages on whichever shard it routes to
/// and must appear in the merged report (Section 4.2's deterministic
/// guarantee, restated for heterogeneous thresholds). Only valid for
/// intervals where no flow memory overflowed — callers gate on
/// any_shard_overflowed().
inline void expect_no_false_negatives(const core::Report& report,
                                      const eval::TruthMap& truth) {
  const common::ByteCount threshold = core::effective_threshold(report);
  for (const auto& [key, size] : truth) {
    if (size >= threshold) {
      EXPECT_NE(core::find_flow(report, key), nullptr)
          << "flow " << key.to_string() << " (" << size
          << " bytes) missed above effective threshold " << threshold;
    }
  }
}

/// Contract (b2): every shard's smoothed usage sits inside the Section 6
/// target band [lo, hi].
inline void expect_usage_in_band(const core::Report& report, double lo,
                                 double hi) {
  ASSERT_FALSE(report.shards.empty());
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const core::ShardStatus& status = report.shards[s];
    EXPECT_GE(status.smoothed_usage, lo) << "shard " << s;
    EXPECT_LE(status.smoothed_usage, hi) << "shard " << s;
  }
}

/// Per-shard mean of smoothed usage over the last `last_k` reports —
/// the convergence statistic: one interval of flow churn moves usage a
/// few points, so "converged into the band" is asserted on a short
/// closing average rather than whichever interval happens to be last.
inline std::vector<double> mean_usage_per_shard(
    const std::vector<core::Report>& reports, std::size_t last_k) {
  const std::size_t shards = reports.back().shards.size();
  const std::size_t from = reports.size() > last_k ? reports.size() - last_k
                                                   : std::size_t{0};
  std::vector<double> mean(shards, 0.0);
  for (std::size_t i = from; i < reports.size(); ++i) {
    for (std::size_t s = 0; s < shards; ++s) {
      mean[s] += reports[i].shards[s].smoothed_usage;
    }
  }
  for (double& m : mean) m /= static_cast<double>(reports.size() - from);
  return mean;
}

inline void expect_mean_usage_in_band(const std::vector<core::Report>& reports,
                                      std::size_t last_k, double lo,
                                      double hi) {
  ASSERT_FALSE(reports.empty());
  ASSERT_FALSE(reports.back().shards.empty());
  const std::vector<double> mean = mean_usage_per_shard(reports, last_k);
  for (std::size_t s = 0; s < mean.size(); ++s) {
    EXPECT_GE(mean[s], lo) << "shard " << s;
    EXPECT_LE(mean[s], hi) << "shard " << s;
  }
}

}  // namespace nd::testing
