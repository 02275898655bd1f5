// TcpTransport: the real-socket wire under reporting::ResilientChannel.
//
// The channel keeps owning policy — retry budget, exponential backoff,
// largest-first shedding, abandonment accounting — while this class
// owns mechanism: one TCP connection to the collector daemon, re-dialed
// lazily whenever it is down, with a hello control frame announcing
// (device id, reconnect epoch) after every successful connect and a bye
// frame when the capture ends. send_frame() returning false is the only
// failure signal the channel sees; it maps onto the same retry path as
// an in-process drop, so the existing chaos invariants carry over to a
// real wire unchanged.
//
// Three deterministic fault sites gate the failure paths (consulted in
// this order, at most one fires per call):
//   net.connect      the next connect attempt fails before dialing
//   net.disconnect   the frame is cut mid-write and the socket closed,
//                    exercising the collector's partial-frame handling
//   net.short_write  sends are shrunk to tiny chunks (the frame still
//                    arrives whole — TCP short writes must be invisible)
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/socket.hpp"
#include "reporting/resilient_channel.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::net {

struct TcpTransportConfig {
  /// Collector address (numeric IPv4; every deployment in this repo is
  /// loopback).
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
  /// Announced in the hello frame; the collector keys per-device state
  /// (sequence tracking, interval dedup) on it.
  std::uint32_t device_id{0};
  /// Fault hook for the net.* sites above. Not owned; null = no faults.
  robustness::FaultInjector* faults{nullptr};
  /// Optional telemetry registry (not owned).
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional trace recorder (not owned): an instant per (re)connect,
  /// carrying the reconnect epoch the hello announced.
  telemetry::TraceRecorder* trace{nullptr};
};

struct TcpTransportStats {
  /// Successful connects (== hello frames sent). connects - 1 is the
  /// current reconnect epoch.
  std::uint64_t connects{0};
  /// Dials that failed (injected or real connection refusals).
  std::uint64_t connect_failures{0};
  std::uint64_t frames_sent{0};
  std::uint64_t bytes_sent{0};
  /// Connections lost mid-frame (injected cut or peer reset).
  std::uint64_t disconnects{0};
  /// Frames delivered under a short-write fault (chunked sends).
  std::uint64_t short_writes{0};
};

class TcpTransport final : public reporting::FrameTransport {
 public:
  explicit TcpTransport(const TcpTransportConfig& config);

  /// Test seam: adopt an already-connected socket (socket_pair()) so
  /// transport behaviour — hello framing, fault sites, partial-write
  /// loops — is testable without a listener. The hello for this
  /// "connection" is sent on the first send_frame().
  TcpTransport(const TcpTransportConfig& config, Socket connected);

  /// Dial if needed (hello included), then write the frame whole.
  /// False means the frame did not reach the collector intact; the
  /// socket is closed so the next attempt re-dials with a bumped epoch.
  [[nodiscard]] bool send_frame(
      std::span<const std::uint8_t> frame) override;

  /// Zero-copy framing path: header + payload go out in one sendmsg()
  /// scatter-gather write, so the payload is never copied behind the
  /// header. Same fault sites and failure semantics as send_frame()
  /// (the net.disconnect prefix cut and net.short_write chunking span
  /// both parts, so the chaos surface is identical).
  [[nodiscard]] bool send_frame_parts(
      std::span<const std::uint8_t> header,
      std::span<const std::uint8_t> payload) override;

  /// Best-effort bye control frame (no fault sites — saying goodbye is
  /// not part of the chaos surface). False when the connection is down
  /// and could not be re-established.
  [[nodiscard]] bool send_bye(std::uint32_t intervals);

  /// Drop the connection (tests force a reconnect this way).
  void disconnect();

  [[nodiscard]] bool connected() const { return socket_.valid(); }
  [[nodiscard]] const TcpTransportStats& stats() const { return stats_; }

 private:
  /// Ensure a live connection, sending hello on a fresh one.
  [[nodiscard]] bool ensure_connected();
  [[nodiscard]] bool write_frame(std::span<const std::uint8_t> bytes,
                                 std::size_t max_chunk);

  TcpTransportConfig config_;
  Socket socket_;
  /// Adopted socket that has not yet introduced itself.
  bool hello_pending_{false};
  TcpTransportStats stats_;
  telemetry::Counter* tm_connects_{nullptr};
  telemetry::Counter* tm_connect_failures_{nullptr};
  telemetry::Counter* tm_frames_{nullptr};
  telemetry::Counter* tm_bytes_{nullptr};
  telemetry::Counter* tm_disconnects_{nullptr};
};

}  // namespace nd::net
