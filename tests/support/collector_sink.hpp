// CollectorSink: the one FrameTransport fake for channel tests.
//
// It stands in for TcpTransport + net::Collector: every attempted frame
// is recorded, an optional script of verdicts decides which attempts
// the "wire" accepts (refusal models a failed connect or a dropped
// connection; an empty script accepts everything), and the accepted
// bytes are fed through net::FrameStreamParser + decode_full, which
// makes the collector's ingest checks but for the canonical-record one
// (reporting::check_flow_records), a no-op on encoder output. So a test
// sees what a real collector would: the decoded reports, the resyncs
// past corrupted frames, and any bytes still buffered waiting for a
// frame that will never complete.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "net/frame_stream.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"

namespace nd::testing {

class CollectorSink final : public reporting::FrameTransport {
 public:
  CollectorSink() = default;
  /// Verdicts for the first attempts, in order; once the script runs
  /// out every attempt is accepted (unless refuse_all is set).
  explicit CollectorSink(std::deque<bool> verdicts)
      : verdicts_(std::move(verdicts)) {}
  CollectorSink(const CollectorSink&) = delete;
  CollectorSink& operator=(const CollectorSink&) = delete;

  bool send_frame(std::span<const std::uint8_t> frame) override {
    frames.emplace_back(frame.begin(), frame.end());
    bool accept = !refuse_all;
    if (!verdicts_.empty()) {
      accept = verdicts_.front();
      verdicts_.pop_front();
    }
    if (accept) parser_.feed(frame, events_);
    return accept;
  }

  /// Refuse every unscripted attempt (a collector down for good).
  bool refuse_all{false};
  /// Every attempted frame, accepted or not, in attempt order.
  std::vector<std::vector<std::uint8_t>> frames;
  /// Reports the collector decoded, in arrival order.
  std::vector<reporting::DecodedReport> reports;
  /// Malformed stretches the parser skipped (nd_net_resync_total).
  std::uint64_t resyncs{0};
  /// CRC-valid payloads that did not decode as a report.
  std::uint64_t decode_errors{0};

  /// Accepted bytes held waiting for the rest of a frame.
  [[nodiscard]] std::size_t buffered() const { return parser_.buffered(); }

 private:
  class Events final : public net::FrameStreamParser::Events {
   public:
    explicit Events(CollectorSink& sink) : sink_(sink) {}
    void on_hello(const net::Hello&) override {}
    void on_bye(const net::Bye&) override {}
    void on_report_frame(std::span<const std::uint8_t> payload) override {
      try {
        sink_.reports.push_back(reporting::decode_full(payload));
      } catch (const reporting::CodecError&) {
        ++sink_.decode_errors;
      }
    }
    void on_resync(std::size_t) override { ++sink_.resyncs; }

   private:
    CollectorSink& sink_;
  };

  std::deque<bool> verdicts_;
  net::FrameStreamParser parser_;
  Events events_{*this};
};

}  // namespace nd::testing
