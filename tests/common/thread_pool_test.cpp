#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace nd::common {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&done] { ++done; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  bool ran = false;
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran);  // no data race: inline mode never leaves the caller
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  for (int wave = 0; wave < 10; ++wave) {
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.submit([&sum, i] { sum += i; }));
    }
    for (auto& future : futures) future.get();
    EXPECT_EQ(sum.load(), 28);
  }
}

TEST(ThreadPool, TaskResultsJoinableInSubmissionOrder) {
  // The fork/join pattern every pipeline user relies on: disjoint output
  // slots, futures joined in order, merge afterwards.
  ThreadPool pool(3);
  std::vector<int> out(16, 0);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&out, i] { out[static_cast<std::size_t>(i)] = i * i; }));
  }
  for (auto& future : futures) future.get();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, ExceptionsSurfaceThroughTheFuture) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  std::atomic<bool> ok{false};
  pool.submit([&ok] { ok = true; }).get();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, DestructionDrainsCleanly) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
    // Futures intentionally dropped; the destructor joins the workers.
  }
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace nd::common
