// Trace span layer: where does the time go, across threads and across
// the wire. A TraceRecorder is a fixed-capacity lock-free event buffer;
// instrumented components record complete spans (begin..end) and
// instant events tagged with the recording thread and with correlation
// ids (device, epoch, interval) so device-side and collector-side spans
// for the same interval line up into one timeline. Export is the
// chrome://tracing / Perfetto JSON Array format — load the file
// straight into a trace viewer.
//
// The overhead contract matches the metrics layer:
//
//   * off: every instrumented site holds a TraceRecorder* that is
//     nullptr when tracing was not requested; the disabled cost is one
//     branch (ScopedTraceSpan skips even the clock reads).
//   * on: recording an event is one relaxed fetch_add to claim a slot,
//     plain stores into it, and one release store to publish — no
//     locks, no allocation.
//   * full: the buffer does not wrap; events past capacity are dropped
//     and counted (dropped()), so a long run degrades to a truncated
//     trace instead of a torn one.
//
// Timestamps come from the common::Clock seam — FakeClock makes span
// begin/end/duration exactly assertable in tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace nd::telemetry {

/// Correlation ids attached to an event; -1 means "not applicable" and
/// the field is omitted from the export.
struct TraceArgs {
  std::int64_t device{-1};
  std::int64_t epoch{-1};
  std::int64_t interval{-1};
  /// Free-slot scalar (batch size, attempt number, bytes, ...);
  /// rendered under the name given at the record site.
  std::int64_t value{-1};
};

enum class TracePhase : std::uint8_t {
  kComplete,  // "ph":"X" — a span with a duration
  kInstant,   // "ph":"i" — a point event
};

/// One recorded event. Name/category are static string literals at
/// every record site, so events are trivially copyable and recording
/// never allocates.
struct TraceEvent {
  const char* name{""};
  const char* category{""};
  /// Name for `args.value` in the export ("" = value unused).
  const char* value_key{""};
  std::uint64_t ts_ns{0};
  std::uint64_t dur_ns{0};
  std::uint32_t tid{0};
  TracePhase phase{TracePhase::kComplete};
  TraceArgs args{};
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(
      std::size_t capacity = kDefaultCapacity,
      common::Clock* clock = &common::SystemClock::instance());

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] std::uint64_t now_ns() const { return clock_->now_ns(); }

  /// A span whose begin/duration the caller measured (via now_ns()).
  void complete(const char* name, const char* category,
                std::uint64_t ts_ns, std::uint64_t dur_ns,
                TraceArgs args = {}, const char* value_key = "");

  /// A point event stamped now.
  void instant(const char* name, const char* category,
               TraceArgs args = {}, const char* value_key = "");

  /// Published events in claim order. Safe while writers run: only
  /// slots whose release store landed are returned.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Events that found the buffer full.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint8_t> committed{0};
    TraceEvent event{};
  };

  void record(const TraceEvent& event);

  common::Clock* clock_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII complete-span: stamps begin at construction, records at scope
/// exit. A null recorder costs one branch and no clock reads. `args`
/// may be filled in after construction (e.g. batch size discovered
/// mid-scope) via mutable_args().
class ScopedTraceSpan {
 public:
  ScopedTraceSpan(TraceRecorder* recorder, const char* name,
                  const char* category, TraceArgs args = {},
                  const char* value_key = "") noexcept
      : recorder_(recorder),
        name_(name),
        category_(category),
        value_key_(value_key),
        args_(args) {
    if (recorder_ != nullptr) start_ = recorder_->now_ns();
  }
  ~ScopedTraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->complete(name_, category_, start_,
                          recorder_->now_ns() - start_, args_,
                          value_key_);
    }
  }
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

  [[nodiscard]] TraceArgs& mutable_args() { return args_; }

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* category_;
  const char* value_key_;
  TraceArgs args_;
  std::uint64_t start_{0};
};

/// Chrome-trace JSON Array rendering of `events` (what --trace writes):
/// `[{"name":...,"cat":...,"ph":"X","ts":µs,"dur":µs,"pid":P,"tid":T,
/// "args":{...}}, ...]` with a trailing newline. Timestamps keep full
/// nanosecond precision as fractional microseconds (3 decimals), so the
/// format round-trips exactly through from_chrome_trace.
[[nodiscard]] std::string to_chrome_trace(
    const std::vector<TraceEvent>& events, std::uint32_t pid);

/// Strict parser for the exact subset to_chrome_trace emits; throws
/// std::invalid_argument on anything else. Returns the events and, via
/// `pid`, the process id they were exported under. Name/category/
/// value_key strings are interned into storage owned by the parser's
/// caller via the returned vector's backing pool.
struct ParsedTrace {
  std::uint32_t pid{0};
  std::vector<TraceEvent> events;
  /// Owns the strings TraceEvent's const char* members point into.
  std::vector<std::unique_ptr<std::string>> strings;
};
[[nodiscard]] ParsedTrace from_chrome_trace(std::string_view json);

}  // namespace nd::telemetry
