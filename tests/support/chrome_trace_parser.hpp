// Round-trip reader for telemetry::to_chrome_trace: a strict parser for
// the exact subset that writer emits, so tests can check that a trace
// export is a fixed point (parse, re-render, compare bytes). Nothing
// outside the tests reads chrome-trace JSON back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace.hpp"

namespace nd::testing {

using telemetry::TraceEvent;
using telemetry::TracePhase;

namespace detail {

/// Strict cursor over the exact bytes to_chrome_trace emits (same
/// style as telemetry/export.cpp's JSON-lines parser).
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (done()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (done() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }
  void expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
  }
  [[nodiscard]] bool consume(char c) {
    if (!done() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t u64() {
    if (done() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("expected a number");
    }
    std::uint64_t value = 0;
    while (!done() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    return value;
  }

  /// <whole>.<ddd> microseconds back to nanoseconds.
  [[nodiscard]] std::uint64_t us_to_ns() {
    const std::uint64_t whole = u64();
    expect('.');
    std::uint64_t frac = 0;
    for (int i = 0; i < 3; ++i) {
      if (done() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("expected 3 fractional digits");
      }
      frac = frac * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    return whole * 1000 + frac;
  }

  [[nodiscard]] std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (done()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (done()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case 'n':
            out.push_back('\n');
            break;
          default:
            fail("unsupported escape");
        }
        continue;
      }
      out.push_back(c);
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument(
        "trace: parse error at byte " + std::to_string(pos_) + ": " +
        why);
  }

 private:
  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace detail

/// The events of a parsed trace and the process id they were exported
/// under. Name/category/value_key strings are interned into `strings`,
/// which owns what TraceEvent's const char* members point into.
struct ParsedTrace {
  std::uint32_t pid{0};
  std::vector<TraceEvent> events;
  std::vector<std::unique_ptr<std::string>> strings;
};

/// Throws std::invalid_argument on anything to_chrome_trace would not
/// emit.
inline ParsedTrace from_chrome_trace(std::string_view json) {
  ParsedTrace parsed;
  std::map<std::string, const char*> interned;
  const auto intern = [&parsed, &interned](std::string text) {
    const auto it = interned.find(text);
    if (it != interned.end()) return it->second;
    parsed.strings.push_back(std::make_unique<std::string>(text));
    const char* stable = parsed.strings.back()->c_str();
    interned.emplace(std::move(text), stable);
    return stable;
  };

  detail::Cursor cursor(json);
  cursor.expect('[');
  bool saw_pid = false;
  if (!cursor.consume(']')) {
    for (;;) {
      TraceEvent event;
      cursor.expect("{\"name\":");
      event.name = intern(cursor.string());
      cursor.expect(",\"cat\":");
      event.category = intern(cursor.string());
      cursor.expect(",\"ph\":\"");
      const char phase = cursor.peek();
      if (phase == 'X') {
        event.phase = TracePhase::kComplete;
      } else if (phase == 'i') {
        event.phase = TracePhase::kInstant;
      } else {
        cursor.fail("unknown phase");
      }
      cursor.expect(phase);
      cursor.expect("\",\"ts\":");
      event.ts_ns = cursor.us_to_ns();
      if (event.phase == TracePhase::kComplete) {
        cursor.expect(",\"dur\":");
        event.dur_ns = cursor.us_to_ns();
      } else {
        cursor.expect(",\"s\":\"t\"");
      }
      cursor.expect(",\"pid\":");
      const std::uint64_t pid = cursor.u64();
      if (saw_pid && pid != parsed.pid) {
        cursor.fail("inconsistent pid");
      }
      parsed.pid = static_cast<std::uint32_t>(pid);
      saw_pid = true;
      cursor.expect(",\"tid\":");
      event.tid = static_cast<std::uint32_t>(cursor.u64());
      cursor.expect(",\"args\":{");
      event.value_key = "";
      if (!cursor.consume('}')) {
        for (;;) {
          const std::string key = cursor.string();
          cursor.expect(':');
          const auto value = static_cast<std::int64_t>(cursor.u64());
          if (key == "device") {
            event.args.device = value;
          } else if (key == "epoch") {
            event.args.epoch = value;
          } else if (key == "interval") {
            event.args.interval = value;
          } else {
            event.value_key = intern(key);
            event.args.value = value;
          }
          if (cursor.consume('}')) break;
          cursor.expect(',');
        }
      }
      cursor.expect('}');
      parsed.events.push_back(event);
      if (cursor.consume(']')) break;
      cursor.expect(',');
      cursor.expect('\n');
      cursor.expect(' ');
    }
  }
  if (cursor.consume('\n') && !cursor.done()) {
    cursor.fail("trailing bytes after trace array");
  }
  if (!cursor.done()) cursor.fail("trailing bytes after trace array");
  return parsed;
}

}  // namespace nd::testing
