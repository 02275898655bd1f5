#include "net/transport.hpp"

#include "net/frame_stream.hpp"

namespace nd::net {

namespace {

/// Chunk size a net.short_write fault forces: small enough that any
/// real frame needs many send() calls, never zero.
[[nodiscard]] std::size_t short_write_chunk(std::uint64_t salt) {
  return static_cast<std::size_t>(salt % 7) + 1;
}

}  // namespace

TcpTransport::TcpTransport(const TcpTransportConfig& config)
    : config_(config) {
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& registry = *config_.metrics;
    tm_connects_ = &registry.counter("nd_net_connects_total");
    tm_connect_failures_ = &registry.counter("nd_net_connect_failures_total");
    tm_frames_ = &registry.counter("nd_net_frames_sent_total");
    tm_bytes_ = &registry.counter("nd_net_bytes_sent_total");
    tm_disconnects_ = &registry.counter("nd_net_disconnects_total");
  }
}

TcpTransport::TcpTransport(const TcpTransportConfig& config,
                           Socket connected)
    : TcpTransport(config) {
  socket_ = std::move(connected);
  hello_pending_ = true;
}

bool TcpTransport::ensure_connected() {
  if (socket_.valid() && !hello_pending_) return true;
  if (!socket_.valid()) {
    if (config_.faults != nullptr &&
        config_.faults->next("net.connect").has_value()) {
      ++stats_.connect_failures;
      if (tm_connect_failures_ != nullptr) {
        tm_connect_failures_->increment();
      }
      return false;
    }
    socket_ = tcp_connect(config_.host, config_.port);
    if (!socket_.valid()) {
      ++stats_.connect_failures;
      if (tm_connect_failures_ != nullptr) {
        tm_connect_failures_->increment();
      }
      return false;
    }
    hello_pending_ = true;
  }
  // Epoch counts completed dials: 0 on the first connection, +1 per
  // reconnect — the collector uses it to distinguish a resumed device
  // from duplicate traffic.
  const Hello hello{config_.device_id,
                    static_cast<std::uint32_t>(stats_.connects)};
  if (!write_frame(encode_hello(hello), 0)) {
    ++stats_.disconnects;
    if (tm_disconnects_ != nullptr) tm_disconnects_->increment();
    socket_.close();
    hello_pending_ = true;
    return false;
  }
  hello_pending_ = false;
  ++stats_.connects;
  if (tm_connects_ != nullptr) tm_connects_->increment();
  if (config_.trace != nullptr) {
    config_.trace->instant(
        "net.connect", "transport",
        telemetry::TraceArgs{config_.device_id,
                             static_cast<std::int64_t>(hello.epoch), -1});
  }
  return true;
}

bool TcpTransport::write_frame(std::span<const std::uint8_t> bytes,
                               std::size_t max_chunk) {
  if (!write_all(socket_.fd(), bytes, max_chunk)) return false;
  stats_.bytes_sent += bytes.size();
  if (tm_bytes_ != nullptr) tm_bytes_->add(bytes.size());
  return true;
}

bool TcpTransport::send_frame(std::span<const std::uint8_t> frame) {
  return send_frame_parts(frame, {});
}

bool TcpTransport::send_frame_parts(std::span<const std::uint8_t> header,
                                    std::span<const std::uint8_t> payload) {
  if (!ensure_connected()) return false;

  const std::size_t total = header.size() + payload.size();
  std::size_t max_chunk = 0;
  if (config_.faults != nullptr) {
    if (const auto fault = config_.faults->next("net.disconnect")) {
      // Cut the connection mid-frame: ship a strict prefix so the
      // collector is left holding a partial frame, then close. The
      // prefix length is salt-derived, so seeded plans replay exactly
      // whether the frame arrived whole or as header + payload parts.
      const std::size_t prefix = robustness::truncated_size(total, fault->salt);
      const std::size_t head_part =
          prefix < header.size() ? prefix : header.size();
      (void)write_all(socket_.fd(), header.first(head_part));
      if (prefix > head_part) {
        (void)write_all(socket_.fd(), payload.first(prefix - head_part));
      }
      socket_.close();
      hello_pending_ = true;
      ++stats_.disconnects;
      if (tm_disconnects_ != nullptr) tm_disconnects_->increment();
      return false;
    }
    if (const auto fault = config_.faults->next("net.short_write")) {
      max_chunk = short_write_chunk(fault->salt);
      ++stats_.short_writes;
    }
  }

  bool ok;
  if (max_chunk != 0) {
    // Forced tiny chunks: sequential write_all per part keeps the
    // partial-write path exercised end to end (the frame still arrives
    // whole — TCP short writes must be invisible to the collector).
    ok = write_all(socket_.fd(), header, max_chunk) &&
         (payload.empty() || write_all(socket_.fd(), payload, max_chunk));
  } else if (payload.empty()) {
    ok = write_all(socket_.fd(), header);
  } else {
    ok = writev_all(socket_.fd(), header, payload);
  }
  if (!ok) {
    ++stats_.disconnects;
    if (tm_disconnects_ != nullptr) tm_disconnects_->increment();
    socket_.close();
    hello_pending_ = true;
    return false;
  }
  stats_.bytes_sent += total;
  if (tm_bytes_ != nullptr) tm_bytes_->add(total);
  ++stats_.frames_sent;
  if (tm_frames_ != nullptr) tm_frames_->increment();
  return true;
}

bool TcpTransport::send_bye(std::uint32_t intervals) {
  if (!ensure_connected()) return false;
  if (!write_frame(encode_bye(Bye{config_.device_id, intervals}), 0)) {
    ++stats_.disconnects;
    if (tm_disconnects_ != nullptr) tm_disconnects_->increment();
    socket_.close();
    hello_pending_ = true;
    return false;
  }
  return true;
}

void TcpTransport::disconnect() {
  socket_.close();
  hello_pending_ = true;
}

}  // namespace nd::net
