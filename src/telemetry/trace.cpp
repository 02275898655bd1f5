#include "telemetry/trace.hpp"

#include <algorithm>
#include <string_view>

namespace nd::telemetry {

namespace {

/// Stable small ids instead of raw pthread ids: traces from repeated
/// runs line up, and the viewer's track list stays dense.
std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[21];
  char* p = buffer + sizeof(buffer);
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  out.append(p, buffer + sizeof(buffer));
}

/// Nanoseconds as fractional microseconds with exactly 3 decimals —
/// lossless, so a reader recovers the original integer.
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  const std::uint64_t frac = ns % 1000;
  out.push_back('.');
  out.push_back(static_cast<char>('0' + frac / 100));
  out.push_back(static_cast<char>('0' + frac / 10 % 10));
  out.push_back(static_cast<char>('0' + frac % 10));
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity, common::Clock* clock)
    : clock_(clock), slots_(std::max<std::size_t>(capacity, 1)) {}

void TraceRecorder::record(const TraceEvent& event) {
  const std::uint64_t ticket =
      next_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[ticket];
  slot.event = event;
  slot.committed.store(1, std::memory_order_release);
}

void TraceRecorder::complete(const char* name, const char* category,
                             std::uint64_t ts_ns, std::uint64_t dur_ns,
                             TraceArgs args, const char* value_key) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.value_key = value_key;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.tid = this_thread_id();
  event.phase = TracePhase::kComplete;
  event.args = args;
  record(event);
}

void TraceRecorder::instant(const char* name, const char* category,
                            TraceArgs args, const char* value_key) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.value_key = value_key;
  event.ts_ns = now_ns();
  event.dur_ns = 0;
  event.tid = this_thread_id();
  event.phase = TracePhase::kInstant;
  event.args = args;
  record(event);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::uint64_t claimed = std::min<std::uint64_t>(
      next_.load(std::memory_order_relaxed), slots_.size());
  std::vector<TraceEvent> out;
  out.reserve(claimed);
  for (std::uint64_t i = 0; i < claimed; ++i) {
    if (slots_[i].committed.load(std::memory_order_acquire) == 0) {
      continue;  // claimed but not yet published; skip, don't tear
    }
    out.push_back(slots_[i].event);
  }
  return out;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint32_t pid) {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",\n ";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, event.name);
    out += "\",\"cat\":\"";
    append_escaped(out, event.category);
    out += "\",\"ph\":\"";
    out += event.phase == TracePhase::kComplete ? 'X' : 'i';
    out += "\",\"ts\":";
    append_us(out, event.ts_ns);
    if (event.phase == TracePhase::kComplete) {
      out += ",\"dur\":";
      append_us(out, event.dur_ns);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":";
    append_u64(out, event.tid);
    out += ",\"args\":{";
    bool first_arg = true;
    const auto arg = [&](std::string_view key, std::int64_t value) {
      if (value < 0) return;
      if (!first_arg) out.push_back(',');
      first_arg = false;
      out.push_back('"');
      append_escaped(out, key);
      out += "\":";
      append_u64(out, static_cast<std::uint64_t>(value));
    };
    arg("device", event.args.device);
    arg("epoch", event.args.epoch);
    arg("interval", event.args.interval);
    if (event.value_key[0] != '\0') {
      arg(event.value_key, event.args.value);
    }
    out += "}}";
  }
  out += "]\n";
  return out;
}

}  // namespace nd::telemetry
