#include "core/measurement_session.hpp"

namespace nd::core {

MeasurementSession::MeasurementSession(
    std::unique_ptr<MeasurementDevice> device,
    packet::FlowDefinition definition,
    common::IntervalDuration interval_duration)
    : device_(std::move(device)),
      definition_(std::move(definition)),
      interval_ns_(static_cast<common::TimestampNs>(
          interval_duration.count() > 0 ? interval_duration.count()
                                        : 1)),
      current_end_ns_(0) {}

void MeasurementSession::attach_telemetry(
    telemetry::MetricsRegistry* registry) {
  tm_registry_ = registry;
  if (registry == nullptr) {
    tm_packets_ = nullptr;
    tm_unclassified_ = nullptr;
    tm_intervals_ = nullptr;
    tm_effective_threshold_ = nullptr;
    return;
  }
  tm_packets_ = &registry->counter("nd_session_packets_total");
  tm_unclassified_ =
      &registry->counter("nd_session_unclassified_total");
  tm_intervals_ = &registry->counter("nd_session_intervals_total");
  tm_effective_threshold_ =
      &registry->gauge("nd_session_effective_threshold");
}

void MeasurementSession::close_interval() {
  {
    // The span times the device's close: report, preserve and compact.
    telemetry::ScopedTraceSpan span(trace_, "interval.close", "session", {},
                                    "flows");
    pending_.push_back(device_->end_interval());
    span.mutable_args() = telemetry::TraceArgs{
        -1, -1, static_cast<std::int64_t>(pending_.back().interval),
        static_cast<std::int64_t>(pending_.back().flows.size())};
  }
  ++intervals_closed_;
  if (tm_registry_ == nullptr) return;
  const Report& report = pending_.back();
  // One generation stamp over the whole mirror: a snapshot taken
  // mid-close can't pair this interval's counters with the previous
  // interval's gauge.
  const telemetry::ScopedRegistryUpdate update(tm_registry_);
  tm_intervals_->increment();
  tm_packets_->add(packets_ - tm_packets_flushed_);
  tm_packets_flushed_ = packets_;
  tm_unclassified_->add(unclassified_ - tm_unclassified_flushed_);
  tm_unclassified_flushed_ = unclassified_;
  tm_effective_threshold_->set(
      static_cast<double>(effective_threshold(report)));
}

void MeasurementSession::close_intervals_until(
    common::TimestampNs timestamp_ns) {
  if (!started_) {
    started_ = true;
    // Anchor interval boundaries at multiples of the duration, like a
    // router clock, not at the first packet's arrival.
    current_end_ns_ = (timestamp_ns / interval_ns_ + 1) * interval_ns_;
  }
  while (timestamp_ns >= current_end_ns_) {
    close_interval();
    current_end_ns_ += interval_ns_;
  }
}

std::vector<Report> MeasurementSession::drain_reports() {
  std::vector<Report> out;
  out.swap(pending_);
  return out;
}

std::vector<Report> MeasurementSession::finish() {
  if (started_) close_interval();
  return drain_reports();
}

SessionCheckpoint MeasurementSession::checkpoint() const {
  if (!pending_.empty()) {
    throw common::StateError(
        "session: drain reports before checkpointing (pending reports "
        "would be lost)");
  }
  if (!device_->can_checkpoint()) {
    throw common::StateError("device does not support checkpointing: " +
                             device_->name());
  }
  SessionCheckpoint checkpoint;
  checkpoint.interval_ns = interval_ns_;
  checkpoint.current_end_ns = current_end_ns_;
  checkpoint.started = started_;
  checkpoint.packets = packets_;
  checkpoint.unclassified = unclassified_;
  checkpoint.intervals_closed = intervals_closed_;
  checkpoint.device_name = device_->name();
  common::StateWriter state;
  device_->save_state(state);
  checkpoint.device_state = state.take();
  return checkpoint;
}

MeasurementSession MeasurementSession::resume(
    const SessionCheckpoint& checkpoint,
    std::unique_ptr<MeasurementDevice> device,
    packet::FlowDefinition definition) {
  MeasurementSession session(
      std::move(device), std::move(definition),
      common::IntervalDuration(
          static_cast<common::IntervalDuration::rep>(checkpoint.interval_ns)));
  if (session.device_->name() != checkpoint.device_name) {
    throw common::StateError(
        "session: checkpoint was taken with device '" +
        checkpoint.device_name + "', resuming with '" +
        session.device_->name() + "'");
  }
  common::StateReader state(checkpoint.device_state);
  session.device_->restore_state(state);
  state.expect_end();
  session.current_end_ns_ = checkpoint.current_end_ns;
  session.started_ = checkpoint.started;
  session.packets_ = checkpoint.packets;
  session.unclassified_ = checkpoint.unclassified;
  session.intervals_closed_ = checkpoint.intervals_closed;
  return session;
}

}  // namespace nd::core
