#include "core/sharded_device.hpp"

#include <algorithm>
#include <exception>
#include <future>

#include "hash/hash.hpp"

namespace nd::core {

std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard) {
  return hash::splitmix64(base_seed ^
                          (0xA24BAED4963EE407ULL * (shard + 1ULL)));
}

ShardedDevice::ShardedDevice(const ShardedDeviceConfig& config,
                             const Factory& factory)
    : route_salt_(shard_route_salt(config.seed)),
      pool_(config.pool),
      trace_(config.trace) {
  const std::uint32_t shards = std::max<std::uint32_t>(config.shards, 1);
  shards_.reserve(shards);
  interval_packets_.assign(shards, 0);
  interval_bytes_.assign(shards, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(factory(s, shard_seed(config.seed, s)));
  }
  baseline_thresholds_.reserve(shards);
  last_thresholds_.reserve(shards);
  for (const auto& replica : shards_) {
    baseline_thresholds_.push_back(replica->threshold());
    last_thresholds_.push_back(replica->threshold());
  }
  if (config.adaptor) {
    adaptors_.assign(shards, ThresholdAdaptor(*config.adaptor));
  }
  if (config.metrics != nullptr) {
    metrics_ = config.metrics;
    telemetry::MetricsRegistry& registry = *config.metrics;
    tm_intervals_ = &registry.counter("nd_sharded_intervals_total");
    tm_threshold_raises_ = &registry.counter("nd_shard_threshold_raises_total");
    tm_threshold_lowers_ = &registry.counter("nd_shard_threshold_lowers_total");
    tm_effective_threshold_ = &registry.gauge("nd_sharded_effective_threshold");
    tm_merge_ns_ = &registry.histogram("nd_shard_merge_ns");
    tm_shard_packets_.reserve(shards);
    tm_shard_bytes_.reserve(shards);
    tm_shard_threshold_.reserve(shards);
    tm_shard_occupancy_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const telemetry::Labels labels{{"shard", std::to_string(s)}};
      tm_shard_packets_.push_back(
          &registry.counter("nd_shard_packets_total", labels));
      tm_shard_bytes_.push_back(
          &registry.counter("nd_shard_bytes_total", labels));
      tm_shard_threshold_.push_back(
          &registry.gauge("nd_shard_threshold", labels));
      tm_shard_occupancy_.push_back(
          &registry.gauge("nd_shard_occupancy", labels));
    }
  }
}

void ShardedDevice::observe(const packet::FlowKey& key,
                            std::uint32_t bytes) {
  const std::uint32_t s = shard_of(key.fingerprint());
  ++interval_packets_[s];
  interval_bytes_[s] += bytes;
  shards_[s]->observe(key, bytes);
}

Report ShardedDevice::end_interval() {
  const telemetry::ScopedTimer merge_timer(tm_merge_ns_);
  telemetry::ScopedTraceSpan merge_span(
      trace_, "shard.merge", "device",
      telemetry::TraceArgs{-1, -1,
                           static_cast<std::int64_t>(interval_index_),
                           static_cast<std::int64_t>(shards_.size())},
      "shards");
  const std::size_t n = shards_.size();
  std::vector<Report> reports(n);
  const auto close = [this, &reports](std::size_t s) {
    reports[s] = shards_[s]->end_interval();
  };
  // Fork/join close (the per-shard flow-memory rebuilds are
  // independent): shards 1..N-1 go to the pool while shard 0 closes on
  // this thread. Without a pool every shard closes inline. Either way
  // every shard closes, even after a failure, so the replicas' interval
  // counters stay aligned; the first failure (lowest shard index)
  // resurfaces as ShardError.
  std::vector<std::future<void>> pending;
  if (pool_ != nullptr) {
    pending.reserve(n - 1);
    for (std::size_t s = 1; s < n; ++s) {
      pending.push_back(pool_->submit([&close, s] { close(s); }));
    }
  }
  std::exception_ptr error;
  std::uint32_t error_shard = 0;
  for (std::size_t s = 0; s < n; ++s) {
    try {
      if (s == 0 || pool_ == nullptr) {
        close(s);
      } else {
        pending[s - 1].get();
      }
    } catch (...) {
      if (!error) {
        error = std::current_exception();
        error_shard = static_cast<std::uint32_t>(s);
      }
    }
  }
  if (error) {
    // Every shard has closed, so the interval is over even though its
    // report is lost: advance the index and drop the tallies so the
    // next close lines up with the replicas.
    ++interval_index_;
    std::fill(interval_packets_.begin(), interval_packets_.end(), 0);
    std::fill(interval_bytes_.begin(), interval_bytes_.end(), 0);
    try {
      std::rethrow_exception(error);
    } catch (const ShardError&) {
      throw;
    } catch (const std::exception& e) {
      throw ShardError(error_shard, e.what());
    }
  }

  // Annotate each shard's report with the status a fleet member
  // attaches to the report it ships to a collector (make_shard_status),
  // then merge with the collector's own merge_member_reports, so the
  // in-process and over-the-wire merges agree bit for bit. Per-shard
  // adaptation then overrides the carried-forward threshold and usage:
  // each shard's private adaptor sees only that shard's usage, so
  // skewed slices of the flow space settle on their own thresholds
  // instead of inheriting a global compromise.
  for (std::size_t s = 0; s < n; ++s) {
    Report& report = reports[s];
    ShardStatus status =
        make_shard_status(report, shards_[s]->flow_memory_capacity(),
                          interval_packets_[s], interval_bytes_[s]);
    if (adaptive()) {
      const common::ByteCount previous = shards_[s]->threshold();
      const common::ByteCount next = adaptors_[s].update(
          previous, report.entries_used, status.capacity);
      shards_[s]->set_threshold(next);
      status.next_threshold = next;
      status.smoothed_usage = adaptors_[s].smoothed_usage();
      // Adaptor decisions as events: how often shards steer, and in
      // which direction.
      if (next > previous && tm_threshold_raises_ != nullptr) {
        tm_threshold_raises_->increment();
      } else if (next < previous && tm_threshold_lowers_ != nullptr) {
        tm_threshold_lowers_->increment();
      }
    }
    last_thresholds_[s] = status.next_threshold;
    report.shards.assign(1, status);
  }
  Report merged = merge_member_reports(interval_index_++, reports);

  // Mirror the interval tallies into the registry (interval deltas into
  // counters, instantaneous state into gauges), then reset them. The
  // generation stamp makes the mirror atomic to snapshots: a scrape
  // mid-mirror would otherwise pair this interval's counters with the
  // prior interval's gauges.
  if (tm_intervals_ != nullptr) {
    const telemetry::ScopedRegistryUpdate update(metrics_);
    tm_intervals_->increment();
    tm_effective_threshold_->set(static_cast<double>(merged.threshold));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const ShardStatus& status = merged.shards[s];
      tm_shard_packets_[s]->add(status.packets);
      tm_shard_bytes_[s]->add(status.bytes);
      tm_shard_threshold_[s]->set(
          static_cast<double>(status.next_threshold));
      tm_shard_occupancy_[s]->set(
          status.capacity == 0
              ? 0.0
              : static_cast<double>(status.entries_used) /
                    static_cast<double>(status.capacity));
    }
  }
  std::fill(interval_packets_.begin(), interval_packets_.end(), 0);
  std::fill(interval_bytes_.begin(), interval_bytes_.end(), 0);
  return merged;
}

common::ByteCount ShardedDevice::threshold() const {
  common::ByteCount max = 0;
  for (const auto& replica : shards_) {
    max = std::max(max, replica->threshold());
  }
  return max;
}

std::string ShardedDevice::name() const {
  return std::string(adaptive() ? "sharded-adaptive(" : "sharded(") +
         shards_.front()->name() + ")x" + std::to_string(shards_.size());
}

void ShardedDevice::set_threshold(common::ByteCount threshold) {
  std::fill(baseline_thresholds_.begin(), baseline_thresholds_.end(),
            threshold);
  std::fill(last_thresholds_.begin(), last_thresholds_.end(), threshold);
  for (const auto& replica : shards_) {
    replica->set_threshold(threshold);
  }
  // Restart the adaptors so steering resumes from the override instead
  // of from usage observed under the old threshold.
  for (ThresholdAdaptor& adaptor : adaptors_) {
    adaptor.reset();
  }
}

std::size_t ShardedDevice::flow_memory_capacity() const {
  std::size_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->flow_memory_capacity();
  }
  return total;
}

std::uint64_t ShardedDevice::memory_accesses() const {
  std::uint64_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->memory_accesses();
  }
  return total;
}

std::uint64_t ShardedDevice::packets_processed() const {
  std::uint64_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->packets_processed();
  }
  return total;
}

bool ShardedDevice::can_checkpoint() const {
  for (const auto& replica : shards_) {
    if (!replica->can_checkpoint()) return false;
  }
  return true;
}

void ShardedDevice::save_state(common::StateWriter& out) const {
  out.put_u8(1);  // layout version
  out.put_u32(shard_count());
  out.put_u32(interval_index_);
  out.put_bool(adaptive());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.put_u64(baseline_thresholds_[s]);
    out.put_u64(last_thresholds_[s]);
    out.put_u64(interval_packets_[s]);
    out.put_u64(interval_bytes_[s]);
    if (adaptive()) adaptors_[s].save_state(out);
  }
  for (const auto& replica : shards_) {
    replica->save_state(out);
  }
}

void ShardedDevice::restore_state(common::StateReader& in) {
  if (in.u8() != 1) {
    throw common::StateError("sharded device: unknown checkpoint layout");
  }
  if (in.u32() != shard_count()) {
    throw common::StateError(
        "sharded device: checkpoint shard count does not match "
        "configuration");
  }
  interval_index_ = in.u32();
  if (in.boolean() != adaptive()) {
    throw common::StateError(
        "sharded device: checkpoint adaptation mode does not match "
        "configuration");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    baseline_thresholds_[s] = in.u64();
    last_thresholds_[s] = in.u64();
    interval_packets_[s] = in.u64();
    interval_bytes_[s] = in.u64();
    if (adaptive()) adaptors_[s].restore_state(in);
  }
  for (const auto& replica : shards_) {
    replica->restore_state(in);
  }
}

}  // namespace nd::core
