// Clock seam for components that sleep (retry backoff, reconnect
// pacing) or timestamp (trace spans): production code uses the system
// clock, tests substitute a FakeClock that only records the requested
// delays and advances a virtual now — so timing behaviour (exponential
// backoff schedules, span timestamps) is asserted exactly, with zero
// wall-clock cost and no flakiness under sanitizers.
// The seam stays tiny: sleeping and reading a monotonic timestamp are
// the only operations the pipeline ever derives from time, and the
// measurement data path depends on neither — determinism never hinges
// on now_ns().
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace nd::common {

class Clock {
 public:
  virtual ~Clock() = default;
  virtual void sleep_for(std::chrono::microseconds duration) = 0;
  /// Monotonic nanoseconds since an arbitrary epoch. Only observability
  /// (trace spans) consumes this; measurement results never depend on
  /// it.
  [[nodiscard]] virtual std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// The real thing; a process-wide instance is enough since it carries
/// no state.
class SystemClock final : public Clock {
 public:
  void sleep_for(std::chrono::microseconds duration) override {
    std::this_thread::sleep_for(duration);
  }

  static SystemClock& instance() {
    static SystemClock clock;
    return clock;
  }
};

/// Test double: advances virtual time instantly and remembers every
/// sleep, so a backoff test asserts the exact schedule (count and total)
/// instead of measuring wall clock. now_ns() is the virtual time:
/// sleeps advance it, and advance() steps it directly — which makes
/// trace-span timestamps exactly predictable in tests.
class FakeClock final : public Clock {
 public:
  void sleep_for(std::chrono::microseconds duration) override {
    elapsed_ += duration;
    sleeps_.push_back(duration);
  }

  [[nodiscard]] std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed_)
            .count()) +
           advanced_ns_;
  }

  /// Step virtual time without recording a sleep.
  void advance(std::chrono::nanoseconds duration) {
    advanced_ns_ += static_cast<std::uint64_t>(duration.count());
  }

  [[nodiscard]] std::chrono::microseconds elapsed() const {
    return elapsed_;
  }
  [[nodiscard]] std::uint64_t sleep_count() const {
    return sleeps_.size();
  }
  [[nodiscard]] const std::vector<std::chrono::microseconds>& sleeps()
      const {
    return sleeps_;
  }

 private:
  std::chrono::microseconds elapsed_{0};
  std::uint64_t advanced_ns_{0};
  std::vector<std::chrono::microseconds> sleeps_;
};

}  // namespace nd::common
