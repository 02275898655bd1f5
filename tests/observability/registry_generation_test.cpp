// Snapshot consistency under the registry's seqlock generation stamp:
// a multi-instrument update wrapped in ScopedRegistryUpdate is never
// observed halfway, so a snapshot can't pair one interval's counter
// with the previous interval's gauge — the regression the interval
// close mirror relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "telemetry/metrics.hpp"

namespace nd::telemetry {
namespace {

TEST(RegistryGeneration, StampsTrackUpdateWindows) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.generation(), 0u);
  registry.begin_update();
  EXPECT_EQ(registry.generation(), 1u);  // odd = in flight
  registry.end_update();
  EXPECT_EQ(registry.generation(), 2u);
  {
    const ScopedRegistryUpdate update(&registry);
    EXPECT_EQ(registry.generation() % 2, 1u);
  }
  EXPECT_EQ(registry.generation(), 4u);
  // A null registry is the disabled-telemetry path: one branch, no-op.
  const ScopedRegistryUpdate detached(nullptr);
}

TEST(RegistryGeneration, SnapshotGivesUpOnAStuckWriterInsteadOfHanging) {
  MetricsRegistry registry;
  registry.counter("nd_test_events_total").add(3);
  registry.begin_update();  // never ended: simulates a wedged writer
  const Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.samples.size(), 1u);
  EXPECT_EQ(snapshot.samples[0].counter_value, 3u);
}

TEST(RegistryGeneration, SnapshotNeverSplitsACounterGaugePair) {
  // The interval-close shape: a writer advances a counter and mirrors
  // its value into a gauge inside one update window. Any snapshot that
  // reads the two out of lockstep has torn the update — exactly the
  // stale-gauge bug the generation stamp exists to prevent.
  MetricsRegistry registry;
  Counter& counter = registry.counter("nd_session_intervals_total");
  Gauge& gauge = registry.gauge("nd_session_effective_threshold");
  {
    const ScopedRegistryUpdate seed(&registry);
    counter.add(1);
    gauge.set(1.0);
  }

  // The writer runs at most one update per snapshot: after each one it
  // waits until the reader finishes the snapshot in flight. A real
  // interval close is seconds apart, so the bounded read retry always
  // finds a quiescent window; a writer that only yields between updates
  // does not guarantee one, and under a sanitizer the reader's slower
  // read overlaps an update on every retry until it gives up and
  // returns a torn read.
  std::atomic<bool> stop{false};
  std::atomic<int> snapshots_done{0};
  std::thread writer([&] {
    for (std::uint64_t i = 2; !stop.load(std::memory_order_relaxed);
         ++i) {
      {
        const ScopedRegistryUpdate update(&registry);
        counter.increment();
        gauge.set(static_cast<double>(i));
      }
      const int seen = snapshots_done.load(std::memory_order_acquire);
      while (!stop.load(std::memory_order_relaxed) &&
             snapshots_done.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
    }
  });

  for (int i = 0; i < 2'000; ++i) {
    const Snapshot snapshot = registry.snapshot();
    snapshots_done.fetch_add(1, std::memory_order_release);
    const Snapshot::Sample* count =
        snapshot.find("nd_session_intervals_total");
    const Snapshot::Sample* mirror =
        snapshot.find("nd_session_effective_threshold");
    ASSERT_NE(count, nullptr);
    ASSERT_NE(mirror, nullptr);
    EXPECT_EQ(static_cast<double>(count->counter_value),
              mirror->gauge_value)
        << "snapshot paired a counter with a stale gauge";
  }
  stop = true;
  writer.join();
}

}  // namespace
}  // namespace nd::telemetry
