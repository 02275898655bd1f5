// A small reusable worker pool for the sharded pipeline.
//
// The pipeline's parallelism is fork/join over a handful of tasks: the
// shard interval close inside a ShardedDevice and `ndtm measure`'s
// report thread. This pool keeps the threads alive
// across intervals so the per-interval cost is one mutex round trip per
// task, not thread creation.
//
// Determinism contract: the pool never reorders results. Callers submit
// tasks that own disjoint state, keep the returned futures, and join in
// submission order; every consumer in this repo merges in a fixed
// (shard) order afterwards, so outputs are identical for any pool
// size. A caller with nothing to fork (one shard) passes no pool at all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"

namespace nd::common {

struct ThreadPoolConfig {
  /// Worker count, at least 1.
  std::size_t threads{1};
};

class ThreadPool {
 public:
  /// Throws std::invalid_argument when `threads` is 0.
  explicit ThreadPool(std::size_t threads)
      : ThreadPool(ThreadPoolConfig{threads}) {}
  explicit ThreadPool(const ThreadPoolConfig& config);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future becomes ready when it finishes (or holds
  /// its exception).
  std::future<void> submit(std::function<void()> task);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Export pool telemetry into `registry` (nd_pool_queue_depth gauge,
  /// nd_pool_tasks_total counter, nd_pool_task_ns latency histogram).
  /// The instrument pointers are published under the queue mutex, so
  /// attaching is safe while tasks run; nullptr detaches. Updates
  /// happen at submit/execute time — never on a path a caller's packet
  /// loop touches.
  void attach_telemetry(telemetry::MetricsRegistry* registry);

  /// Attach a fault injector (site "pool.task": a submitted task throws
  /// FaultInjectedError or stalls before running). The plan is consulted
  /// on the submitting thread so fault occurrences are deterministic
  /// regardless of worker interleaving; a throw decision surfaces
  /// through the returned future exactly like an organic task failure.
  /// Not owned; null (the default) detaches and costs one pointer test
  /// per submit.
  void attach_fault_injector(robustness::FaultInjector* faults);

  /// A sensible worker count for this machine (>= 1).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_{false};
  /// Telemetry instruments; null when no registry is attached. Guarded
  /// by mutex_ for publication; readers load them under the same mutex
  /// round trip every task already pays.
  telemetry::Gauge* tm_queue_depth_{nullptr};
  telemetry::Counter* tm_tasks_{nullptr};
  telemetry::Histogram* tm_task_ns_{nullptr};
  /// Fault injector; null when off. Guarded by mutex_ for publication.
  robustness::FaultInjector* faults_{nullptr};
};

}  // namespace nd::common
