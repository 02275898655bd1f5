// TraceRecorder and the chrome-trace codec: exact timestamps under
// FakeClock, lock-free publication under concurrent writers, sampling
// and full-buffer degradation, and the emit/parse round trip the
// --trace pipeline smoke relies on.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "../support/chrome_trace_parser.hpp"
#include "common/clock.hpp"
#include "telemetry/trace.hpp"

namespace nd::telemetry {
namespace {

using nd::testing::from_chrome_trace;
using nd::testing::ParsedTrace;
using std::chrono::nanoseconds;

TEST(TraceRecorder, ScopedSpanStampsFakeClockTimesExactly) {
  common::FakeClock clock;
  clock.advance(nanoseconds(5'000));
  TraceRecorder recorder(16, &clock);
  {
    ScopedTraceSpan span(&recorder, "merge", "device",
                         TraceArgs{2, -1, 7, -1});
    clock.advance(nanoseconds(1'234));
  }
  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "merge");
  EXPECT_STREQ(events[0].category, "device");
  EXPECT_EQ(events[0].phase, TracePhase::kComplete);
  EXPECT_EQ(events[0].ts_ns, 5'000u);
  EXPECT_EQ(events[0].dur_ns, 1'234u);
  EXPECT_EQ(events[0].args.device, 2);
  EXPECT_EQ(events[0].args.interval, 7);
}

TEST(TraceRecorder, NullRecorderSpanIsANoOp) {
  // The disabled contract: constructing a span against nullptr reads no
  // clock and records nothing — this must simply not crash.
  ScopedTraceSpan span(nullptr, "x", "y");
  span.mutable_args().value = 9;
}

TEST(TraceRecorder, MutableArgsFillInAfterConstruction) {
  common::FakeClock clock;
  TraceRecorder recorder(16, &clock);
  {
    ScopedTraceSpan span(&recorder, "frame.decode", "collector",
                         TraceArgs{1, 0, -1}, "bytes");
    span.mutable_args().interval = 3;  // discovered mid-scope
    span.mutable_args().value = 512;
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args.interval, 3);
  EXPECT_EQ(events[0].args.value, 512);
  EXPECT_STREQ(events[0].value_key, "bytes");
}

TEST(TraceRecorder, InstantEventsStampNowWithZeroDuration) {
  common::FakeClock clock;
  clock.advance(nanoseconds(42));
  TraceRecorder recorder(16, &clock);
  recorder.instant("report.duplicate", "collector", TraceArgs{3, -1, 1});
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_EQ(events[0].ts_ns, 42u);
  EXPECT_EQ(events[0].dur_ns, 0u);
}

TEST(TraceRecorder, FullBufferDropsAndCountsInsteadOfWrapping) {
  common::FakeClock clock;
  TraceRecorder recorder(4, &clock);
  for (int i = 0; i < 7; ++i) {
    recorder.instant("tick", "test", TraceArgs{-1, -1, i});
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // The first four survive untouched — truncation, never overwrite.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].args.interval, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(recorder.dropped(), 3u);
}

TEST(TraceRecorder, ConcurrentWritersPublishEveryClaimedSlot) {
  common::FakeClock clock;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  TraceRecorder recorder(kThreads * kPerThread, &clock);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.instant("tick", "test");
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  const auto events = recorder.events();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.dropped(), 0u);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& event : events) tids.insert(event.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ChromeTrace, RoundTripsEveryFieldExactly) {
  std::vector<TraceEvent> events;
  TraceEvent complete;
  complete.name = "channel.send";
  complete.category = "channel";
  complete.value_key = "attempts";
  complete.ts_ns = 1'234'567'891;  // exercises the fractional µs digits
  complete.dur_ns = 999;
  complete.tid = 3;
  complete.phase = TracePhase::kComplete;
  complete.args = TraceArgs{1, 2, 5, 4};
  events.push_back(complete);
  TraceEvent instant;
  instant.name = "net.connect";
  instant.category = "transport";
  instant.value_key = "";
  instant.ts_ns = 7;
  instant.tid = 0;
  instant.phase = TracePhase::kInstant;
  instant.args = TraceArgs{1, 0, -1, -1};
  events.push_back(instant);

  const std::string json = to_chrome_trace(events, 42);
  const ParsedTrace parsed = from_chrome_trace(json);
  EXPECT_EQ(parsed.pid, 42u);
  ASSERT_EQ(parsed.events.size(), 2u);
  const TraceEvent& a = parsed.events[0];
  EXPECT_STREQ(a.name, "channel.send");
  EXPECT_STREQ(a.category, "channel");
  EXPECT_STREQ(a.value_key, "attempts");
  EXPECT_EQ(a.ts_ns, 1'234'567'891u);
  EXPECT_EQ(a.dur_ns, 999u);
  EXPECT_EQ(a.tid, 3u);
  EXPECT_EQ(a.phase, TracePhase::kComplete);
  EXPECT_EQ(a.args.device, 1);
  EXPECT_EQ(a.args.epoch, 2);
  EXPECT_EQ(a.args.interval, 5);
  EXPECT_EQ(a.args.value, 4);
  const TraceEvent& b = parsed.events[1];
  EXPECT_EQ(b.phase, TracePhase::kInstant);
  EXPECT_EQ(b.ts_ns, 7u);
  EXPECT_EQ(b.args.epoch, 0);
  EXPECT_EQ(b.args.interval, -1);
  // Re-rendering the parsed events reproduces the bytes: the format is
  // a fixed point, which is what "valid chrome-trace output" means for
  // the pipeline smoke.
  EXPECT_EQ(to_chrome_trace(parsed.events, parsed.pid), json);
}

TEST(ChromeTrace, EmptyTraceRoundTrips) {
  const std::string json = to_chrome_trace({}, 9);
  EXPECT_EQ(json, "[]\n");
  const ParsedTrace parsed = from_chrome_trace(json);
  EXPECT_TRUE(parsed.events.empty());
}

TEST(ChromeTrace, EscapesQuotesBackslashesAndNewlines) {
  TraceEvent event;
  event.name = "a\"b\\c\nd";
  event.category = "cat";
  event.phase = TracePhase::kInstant;
  const std::string json = to_chrome_trace({event}, 0);
  EXPECT_NE(json.find(R"(a\"b\\c\nd)"), std::string::npos);
  const ParsedTrace parsed = from_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_STREQ(parsed.events[0].name, "a\"b\\c\nd");
}

TEST(ChromeTrace, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)from_chrome_trace(""), std::invalid_argument);
  EXPECT_THROW((void)from_chrome_trace("{}"), std::invalid_argument);
  EXPECT_THROW((void)from_chrome_trace("[]\n junk"),
               std::invalid_argument);
  // A dur with only two fractional digits is not the emitted format.
  EXPECT_THROW(
      (void)from_chrome_trace(
          R"([{"name":"x","cat":"y","ph":"X","ts":1.00,"dur":1.000,)"
          R"("pid":0,"tid":0,"args":{}}])"
          "\n"),
      std::invalid_argument);
  // Events exported under different pids cannot be one trace.
  TraceEvent event;
  event.name = "x";
  event.category = "y";
  event.phase = TracePhase::kInstant;
  std::string a = to_chrome_trace({event}, 1);
  std::string b = to_chrome_trace({event}, 2);
  // Splice b's event into a's array.
  const std::string mixed = a.substr(0, a.size() - 2) + ",\n " +
                            b.substr(1, b.size() - 3) + "]\n";
  EXPECT_THROW((void)from_chrome_trace(mixed), std::invalid_argument);
}

}  // namespace
}  // namespace nd::telemetry
