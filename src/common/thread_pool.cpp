#include "common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nd::common {

ThreadPool::ThreadPool(const ThreadPoolConfig& config) {
  if (config.threads == 0) {
    throw std::invalid_argument("ThreadPool: threads must be at least 1");
  }
  workers_.reserve(config.threads);
  for (std::size_t i = 0; i < config.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::attach_telemetry(telemetry::MetricsRegistry* registry) {
  telemetry::Gauge* depth = nullptr;
  telemetry::Counter* tasks = nullptr;
  telemetry::Histogram* latency = nullptr;
  if (registry != nullptr) {
    depth = &registry->gauge("nd_pool_queue_depth");
    tasks = &registry->counter("nd_pool_tasks_total");
    latency = &registry->histogram("nd_pool_task_ns");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  tm_queue_depth_ = depth;
  tm_tasks_ = tasks;
  tm_task_ns_ = latency;
}

void ThreadPool::attach_fault_injector(robustness::FaultInjector* faults) {
  const std::lock_guard<std::mutex> lock(mutex_);
  faults_ = faults;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  robustness::FaultInjector* faults;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    faults = faults_;
  }
  if (faults != nullptr) {
    // Decide on the submitting thread (deterministic occurrence order),
    // apply inside the task so a throw lands in the future like any
    // organic task failure instead of unwinding the submitter.
    if (const auto fault = faults->next("pool.task")) {
      task = [decision = *fault, inner = std::move(task)] {
        robustness::apply_compute_fault(decision, "pool.task");
        inner();
      };
    }
  }
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
    if (tm_queue_depth_ != nullptr) {
      tm_queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    telemetry::Histogram* latency = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      latency = tm_task_ns_;
      if (tm_tasks_ != nullptr) tm_tasks_->increment();
      if (tm_queue_depth_ != nullptr) {
        tm_queue_depth_->set(static_cast<double>(queue_.size()));
      }
    }
    const telemetry::ScopedTimer timer(latency);
    task();  // packaged_task captures exceptions into the future
  }
}

std::size_t ThreadPool::default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace nd::common
