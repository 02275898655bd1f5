#include "reporting/resilient_channel.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "reporting/wal.hpp"

namespace nd::reporting {

ResilientChannel::ResilientChannel(const ResilientChannelConfig& config)
    : config_(config),
      channel_(config.bytes_per_interval),
      jitter_rng_(config.jitter_seed),
      prev_delay_(config.backoff_base) {
  if (config_.transport == nullptr) {
    throw std::invalid_argument("ResilientChannel: a transport is required");
  }
  if (config_.bytes_per_interval > wal::kMaxPayloadBytes) {
    // A report shaped to such a budget could outgrow the one frame
    // payload bound, and the collector would drop it as corrupt.
    throw std::invalid_argument(
        "ResilientChannel: bytes_per_interval exceeds the frame payload "
        "bound");
  }
  config_.max_attempts = std::max<std::uint32_t>(config_.max_attempts, 1);
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& registry = *config_.metrics;
    tm_retries_ = &registry.counter("nd_channel_retries_total");
    tm_drops_ = &registry.counter("nd_channel_drops_total");
    tm_abandoned_ = &registry.counter("nd_channel_abandoned_total");
    tm_transport_failures_ =
        &registry.counter("nd_channel_transport_failures_total");
    tm_spooled_ = &registry.counter("nd_channel_spooled_total");
  }
}

void ResilientChannel::backoff(std::uint32_t retry_index) {
  const std::int64_t base = config_.backoff_base.count();
  const std::int64_t cap = kBackoffCap.count();
  std::int64_t delay_us;
  if (config_.jitter) {
    // Decorrelated jitter: uniform in [base, min(cap, 3 * previous)].
    // The previous delay carries across sends, so a long outage keeps
    // spreading a fleet out instead of re-synchronizing per report.
    const std::int64_t prev = prev_delay_.count();
    const std::int64_t upper = prev > cap / 3 ? cap : prev * 3;
    const std::uint64_t span =
        upper > base ? static_cast<std::uint64_t>(upper - base) + 1 : 1;
    delay_us = std::min(
        cap, base + static_cast<std::int64_t>(jitter_rng_.uniform(span)));
    prev_delay_ = std::chrono::microseconds(delay_us);
  } else {
    // min(base * 2^retry, cap), never forming a product that would pass
    // the cap, so it cannot overflow.
    const std::uint32_t shift = std::min<std::uint32_t>(retry_index, 63);
    delay_us = base <= (cap >> shift) ? base << shift : cap;
  }
  const std::chrono::microseconds delay(delay_us);
  stats_.backoff_us += static_cast<std::uint64_t>(delay.count());
  ++stats_.retries;
  if (tm_retries_ != nullptr) tm_retries_->increment();
  if (config_.trace != nullptr) {
    config_.trace->instant(
        "channel.backoff", "channel",
        telemetry::TraceArgs{config_.trace_device, -1, -1,
                             static_cast<std::int64_t>(delay.count())},
        "delay_us");
  }
  if (config_.sleep_on_backoff) {
    common::Clock& clock = config_.clock != nullptr
                               ? *config_.clock
                               : common::SystemClock::instance();
    clock.sleep_for(delay);
  }
}

DeliveryOutcome ResilientChannel::send(
    core::Report report, std::string_view metrics_json,
    std::optional<packet::FlowKeyKind> header_kind) {
  ++stats_.reports_sent;
  telemetry::ScopedTraceSpan span(
      config_.trace, "channel.send", "channel",
      telemetry::TraceArgs{config_.trace_device, -1,
                           static_cast<std::int64_t>(report.interval)},
      "attempts");
  // Largest-first shedding: the channel truncates to a prefix, so
  // sorting by descending size guarantees whatever survives the budget
  // is exactly the top-K heavy hitters. A caller that already sorted
  // (ndtm lists its reports largest-first) pays one linear check here.
  core::sort_by_size(report);
  const packet::FlowKeyKind kind =
      header_kind ? *header_kind
      : report.flows.empty() ? packet::FlowKeyKind::kFiveTuple
                             : report.flows.front().key.kind();
  const std::uint64_t offered = report.flows.size();
  CollectionChannel::Delivered shaped =
      channel_.deliver(std::move(report), metrics_json);
  const std::string_view trailer =
      shaped.metrics_delivered ? metrics_json : std::string_view{};
  const std::uint64_t budget_shed = offered - shaped.report.flows.size();

  DeliveryOutcome outcome;
  if (config_.spool != nullptr) {
    // Persist before the first send attempt: from here on the report
    // survives anything short of losing the spool directory.
    const std::size_t shaped_flows = shaped.report.flows.size();
    const SpoolWal::AppendResult appended =
        config_.spool->append(std::move(shaped.report), kind, trailer);
    ++stats_.reports_spooled;
    if (tm_spooled_ != nullptr) tm_spooled_->increment();
    outcome.spooled = appended.index != SpoolWal::npos;
    outcome.records_shed = budget_shed + appended.records_shed;
    stats_.records_shed += outcome.records_shed;

    const std::uint64_t attempts_before = stats_.attempts;
    outcome.delivered = drain_spool();
    outcome.attempts =
        static_cast<std::uint32_t>(stats_.attempts - attempts_before);
    outcome.backlog = config_.spool->backlog();
    if (outcome.delivered) {
      outcome.records_delivered = shaped_flows - appended.records_shed;
      outcome.metrics_delivered = shaped.metrics_delivered;
    }
    return outcome;
  }

  // Encode once; every attempt hands the 12-byte header and the payload
  // to the transport as two spans (a scatter-gather write, so the
  // payload is never copied behind the header).
  encode_into(scratch_payload_, shaped.report, kind, trailer);
  const auto header = frame_header(scratch_payload_);
  for (std::uint32_t retry = 0; retry < config_.max_attempts; ++retry) {
    outcome.attempts = retry + 1;
    span.mutable_args().value = outcome.attempts;
    if (attempt(header, scratch_payload_) == Attempt::kSent) {
      outcome.delivered = true;
      outcome.records_delivered = shaped.report.flows.size();
      outcome.records_shed = budget_shed;
      outcome.metrics_delivered = shaped.metrics_delivered;
      stats_.records_shed += outcome.records_shed;
      return outcome;
    }
    backoff(retry);
  }
  ++stats_.reports_abandoned;
  if (tm_abandoned_ != nullptr) tm_abandoned_->increment();
  return outcome;
}

ResilientChannel::Attempt ResilientChannel::attempt(
    std::span<const std::uint8_t> header,
    std::span<const std::uint8_t> payload) {
  ++stats_.attempts;
  if (config_.faults != nullptr && config_.faults->next("channel.drop")) {
    // The attempt is lost before it reaches the wire; the caller's
    // bytes are untouched and simply retried.
    ++stats_.drops;
    if (tm_drops_ != nullptr) tm_drops_->increment();
    return Attempt::kDropped;
  }
  const std::optional<robustness::FaultDecision> corrupt =
      config_.faults != nullptr ? config_.faults->next("channel.corrupt")
                                : std::nullopt;
  bool sent;
  if (corrupt) {
    // Corrupt a contiguous copy of the frame: the collector's CRC check
    // rejects it, while the caller's bytes (a spooled frame, say) stay
    // intact for any later replay.
    std::vector<std::uint8_t> frame = frame_payload(payload);
    robustness::corrupt_bytes(frame, corrupt->salt);
    sent = config_.transport->send_frame(frame);
  } else {
    sent = config_.transport->send_frame_parts(header, payload);
  }
  if (!sent) {
    ++stats_.transport_failures;
    if (tm_transport_failures_ != nullptr) {
      tm_transport_failures_->increment();
    }
    return Attempt::kTransportFailed;
  }
  return Attempt::kSent;
}

bool ResilientChannel::drain_spool() {
  SpoolWal* spool = config_.spool;
  if (spool == nullptr) return true;
  std::uint32_t failures = 0;
  while (spool->backlog() > 0) {
    // Re-read the watermark every pass: a transport failure below
    // rewinds it to zero and the replay restarts from the oldest frame.
    const std::span<const std::uint8_t> stored =
        spool->frame(spool->watermark());
    const Attempt result = attempt(stored.first(kFrameHeaderBytes),
                                   stored.subspan(kFrameHeaderBytes));
    if (result == Attempt::kSent) {
      spool->ack();
      failures = 0;
      continue;
    }
    if (result == Attempt::kTransportFailed) {
      // The connection died: frames sent on it may never have reached
      // the collector's journal, so mark the whole log pending again.
      spool->rewind();
    }
    if (++failures >= config_.max_attempts) return false;
    backoff(failures - 1);
  }
  return true;
}

}  // namespace nd::reporting
