// ResilientChannel: self-healing delivery of interval reports over a
// FrameTransport (net::TcpTransport in production).
//
// CollectionChannel models the bandwidth constraint of the router →
// management-station link; this wrapper adds the recovery loop for the
// failures a real export path suffers:
//
//   * largest-flow-first shedding: the report's records are sorted by
//     descending size before the channel truncates to its byte budget,
//     so whatever survives is exactly the heavy-hitter prefix (the
//     paper's whole point is that those are the flows worth shipping).
//     send() takes the report by value and sorts and truncates it in
//     place, so a caller that moves its report in ships it without a
//     copy, and an already-sorted report costs one linear scan;
//   * CRC32 framing (record_codec.hpp): the collector verifies every
//     frame and resyncs past a corrupted one instead of decoding
//     plausible garbage. The channel cannot see that rejection: a
//     corrupted frame the transport accepted counts as delivered and
//     is not retried. It is lost (a spool replays it only if a later
//     transport failure rewinds the log), and the loss shows only on
//     the collector side, as nd_net_resync_total or
//     partial_frames_dropped;
//   * bounded retry with exponential backoff: each dropped attempt
//     ("channel.drop") or transport failure backs off (base * 2^retry,
//     clamped at backoff_cap); after max_attempts the report is
//     abandoned and the loss shows up in stats();
//   * store-and-forward (spool.hpp): with a spool attached, a report is
//     persisted before its first attempt and is never abandoned.
//
// send() and drain_spool() share one attempt step, so a fault plan
// puts the same bytes on the wire through either path.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/device.hpp"
#include "reporting/collector.hpp"
#include "reporting/spool.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::reporting {

/// The wire under ResilientChannel: net::TcpTransport ships the frame
/// bytes to a collector daemon. send_frame returning false means the
/// frame did not leave this host intact (connect refused, connection
/// lost mid-frame) and the channel's retry/backoff policy decides what
/// happens next. Implementations own reconnecting —
/// the channel only retries whole frames.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;
  [[nodiscard]] virtual bool send_frame(
      std::span<const std::uint8_t> frame) = 0;
  /// Scatter-gather variant: `header` and `payload` are one logical
  /// frame (header immediately followed by payload on the wire). The
  /// default assembles and delegates to send_frame(), so test fakes
  /// stay one-method; net::TcpTransport overrides it with a
  /// sendmsg() that never copies the payload behind the header.
  [[nodiscard]] virtual bool send_frame_parts(
      std::span<const std::uint8_t> header,
      std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> frame;
    frame.reserve(header.size() + payload.size());
    frame.insert(frame.end(), header.begin(), header.end());
    frame.insert(frame.end(), payload.begin(), payload.end());
    return send_frame(frame);
  }
};

struct ResilientChannelConfig {
  /// Underlying CollectionChannel byte budget per interval.
  std::uint64_t bytes_per_interval{1ULL << 20};
  /// Delivery attempts per report before it is abandoned (>= 1).
  std::uint32_t max_attempts{4};
  /// First retry backoff; doubles per subsequent retry, up to
  /// backoff_cap.
  std::chrono::microseconds backoff_base{1000};
  /// Actually sleep the backoff (real deployments) or only record it
  /// (tests and simulations, the default — determinism stays intact
  /// either way since the backoff never influences the data path).
  bool sleep_on_backoff{false};
  /// Clock the backoff sleeps on (only consulted when sleep_on_backoff
  /// is set). Null uses the system clock; tests substitute a
  /// common::FakeClock so backoff schedules are asserted exactly with
  /// zero wall-clock cost. Not owned.
  common::Clock* clock{nullptr};
  /// The wire every frame ships over. Required: the constructor throws
  /// std::invalid_argument when it is null. Not owned; must outlive the
  /// channel.
  FrameTransport* transport{nullptr};
  /// Fault hook for the transit sites "channel.drop" (the attempt is
  /// lost before the transport sees it) and "channel.corrupt" (a byte
  /// of the wire copy flipped). Not owned; null is zero-cost.
  robustness::FaultInjector* faults{nullptr};
  /// Optional telemetry registry (not owned); labels tag every series.
  telemetry::MetricsRegistry* metrics{nullptr};
  telemetry::Labels metric_labels{};
  /// Optional trace recorder (not owned): a span per send() and an
  /// instant per retry backoff, correlated with the collector side via
  /// the report's interval and `trace_device`.
  telemetry::TraceRecorder* trace{nullptr};
  /// Device id stamped into this channel's trace events (-1 = none).
  std::int64_t trace_device{-1};
  /// Durable store-and-forward log (reporting/spool.hpp). With a spool
  /// attached, send() shapes the report to the channel budget, appends
  /// the frame to the spool *before* the first send attempt, then
  /// drains the spool oldest-first; a report that
  /// outlives the retry budget stays spooled — never abandoned — and is
  /// retried by the next send() or an explicit drain_spool(). Not
  /// owned; must outlive the channel.
  SpoolWal* spool{nullptr};
  /// Opt into decorrelated-jitter backoff: each delay is drawn
  /// uniformly from [backoff_base, min(backoff_cap, 3 x previous
  /// delay)] (AWS "decorrelated jitter") instead of the deterministic
  /// base * 2^retry ladder, so a fleet reconnecting after a collector
  /// restart does not thunder in lockstep. Off by default — the exact
  /// exponential ladder stays the contract the FakeClock tests assert.
  bool jitter{false};
  /// Seed for the jitter draw; distinct per device so schedules
  /// decorrelate while staying exactly reproducible.
  std::uint64_t jitter_seed{1};
  /// Upper clamp on every backoff delay, jittered or exponential.
  std::chrono::microseconds backoff_cap{1'000'000};
};

struct ResilientChannelStats {
  std::uint64_t reports_sent{0};
  std::uint64_t attempts{0};
  std::uint64_t retries{0};
  /// Attempts lost in transit ("channel.drop"), each one retried.
  std::uint64_t drops{0};
  /// Frames the transport failed to put on the wire (connect refused,
  /// connection lost mid-frame) — each one retried like a drop.
  std::uint64_t transport_failures{0};
  /// Records truncated by the byte budget (smallest flows, by
  /// construction — see largest-first shedding above).
  std::uint64_t records_shed{0};
  /// Reports given up on after max_attempts. A sender-side loss is
  /// never silent — it lands here. A spooled report is never
  /// abandoned: exhaustion leaves it in the spool for a later drain.
  std::uint64_t reports_abandoned{0};
  /// Reports appended to the spool (spool mode counts every send here).
  std::uint64_t reports_spooled{0};
  /// Total backoff the retry loop imposed (recorded even when
  /// sleep_on_backoff is off).
  std::uint64_t backoff_us{0};
};

/// The outcome of one send(): what reached the collector.
struct DeliveryOutcome {
  bool delivered{false};
  std::uint32_t attempts{0};
  std::uint64_t records_delivered{0};
  std::uint64_t records_shed{0};
  bool metrics_delivered{false};
  /// The report was durably appended to the spool before any attempt.
  bool spooled{false};
  /// Spooled frames still awaiting the wire after this call (0 in
  /// non-spool mode). Non-zero with delivered == false means "not lost,
  /// waiting" — the exit-code contract's distinction.
  std::size_t backlog{0};
};

class ResilientChannel {
 public:
  /// Throws std::invalid_argument when config.transport is null.
  explicit ResilientChannel(const ResilientChannelConfig& config);

  /// Shape, encode and frame one interval's report once, then ship it,
  /// retrying drops and transport failures up to max_attempts times
  /// (spool mode: persist it and drain the spool instead). The report
  /// is taken by value and sorted and truncated in place: a caller done
  /// with it moves it in (ndtm measure does, after its export write) and
  /// no flow is copied on the way to the wire.
  DeliveryOutcome send(core::Report report,
                       std::string_view metrics_json = {});

  /// Push pending spooled frames onto the transport, oldest-first, with
  /// at most max_attempts failures in a row; returns true when the
  /// backlog is empty on exit. A transport failure rewinds the spool
  /// watermark (frames sent on the dead connection may never have been
  /// journaled), so the next drain replays the whole log and the
  /// collector's first-copy-wins dedup absorbs the duplicates. Frames
  /// that exhaust the attempt budget stay spooled. No-op without a
  /// spool; called by send() in spool mode and by shutdown paths.
  bool drain_spool();

  [[nodiscard]] const ResilientChannelStats& stats() const { return stats_; }
  [[nodiscard]] const ChannelStats& channel_stats() const {
    return channel_.stats();
  }

 private:
  enum class Attempt { kSent, kDropped, kTransportFailed };
  /// One delivery attempt of one frame: consult "channel.drop", then
  /// "channel.corrupt", then the transport.
  Attempt attempt(std::span<const std::uint8_t> header,
                  std::span<const std::uint8_t> payload);
  void backoff(std::uint32_t retry_index);

  ResilientChannelConfig config_;
  CollectionChannel channel_;
  ResilientChannelStats stats_;
  /// Encode scratch for the payload in flight, reused across sends.
  std::vector<std::uint8_t> scratch_payload_;
  /// Decorrelated-jitter state: the previous delay feeds the next draw.
  common::Rng jitter_rng_{1};
  std::chrono::microseconds prev_delay_{0};
  telemetry::Counter* tm_retries_{nullptr};
  telemetry::Counter* tm_drops_{nullptr};
  telemetry::Counter* tm_abandoned_{nullptr};
  telemetry::Counter* tm_transport_failures_{nullptr};
  telemetry::Counter* tm_spooled_{nullptr};
};

}  // namespace nd::reporting
