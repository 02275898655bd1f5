// The collection tier's stream protocol: length-delimited NDFR report
// frames (reporting/record_codec.hpp) interleaved with two fixed-size
// control frames on one TCP byte stream.
//
//   hello 'NDHI' (u32) | device id (u32) | reconnect epoch (u32) | 0 (u32)
//   bye   'NDBY' (u32) | device id (u32) | intervals sent (u32)   | 0 (u32)
//   data  'NDFR' (u32) | payload length (u32) | CRC32 (u32) | payload
//
// A device sends hello first on every (re)connection — the epoch counts
// reconnects, so the collector can tell a resumed device from a new
// one — ships one framed v3 report per interval, and says bye when its
// capture ends. Everything is big-endian, matching the report codec.
//
// FrameStreamParser is the collector's incremental decoder: feed() it
// whatever read() returned — or read() straight into its buffer through
// prepare() and commit() — and it emits whole, CRC-verified events.
// A report frame passes the same check a spool or journal record does
// (reporting/wal.hpp verify, one 64 MiB payload bound). Its central
// obligation is the resync rule the chaos suite enforces: any
// malformed bytes — bad magic, an absurd length prefix, a CRC mismatch
// — are skipped to the next plausible frame boundary (the next 'ND..'
// magic) and counted, never crashed on and never allowed to
// desynchronize the frames that follow. That is what lets a
// collector survive a corrupted frame in the middle of a live stream
// and keep ingesting the rest, NetFlow's "loss rates of up to 90%"
// problem answered with per-frame damage instead of per-stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace nd::net {

inline constexpr std::uint32_t kHelloMagic = 0x4E444849;  // "NDHI"
inline constexpr std::uint32_t kByeMagic = 0x4E444259;    // "NDBY"
inline constexpr std::size_t kControlFrameBytes = 16;

struct Hello {
  std::uint32_t device_id{0};
  /// 0 on the device's first connection, +1 per reconnect.
  std::uint32_t epoch{0};
};

struct Bye {
  std::uint32_t device_id{0};
  /// Intervals the device closed over its lifetime (all epochs).
  std::uint32_t intervals{0};
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_bye(const Bye& bye);

class FrameStreamParser {
 public:
  /// Event sink for one connection's stream. on_report_frame hands over
  /// the CRC-verified NDFR payload (a view into the parser's buffer,
  /// valid only during the call); decoding it is the caller's business.
  class Events {
   public:
    virtual ~Events() = default;
    virtual void on_hello(const Hello& hello) = 0;
    virtual void on_bye(const Bye& bye) = 0;
    virtual void on_report_frame(std::span<const std::uint8_t> payload) = 0;
    /// Malformed bytes were skipped to the next plausible frame
    /// boundary. Fires once per resync decision.
    virtual void on_resync(std::size_t bytes_skipped) = 0;
  };

  /// Consume a chunk of the byte stream, emitting every complete frame.
  void feed(std::span<const std::uint8_t> bytes, Events& events);

  /// Room for the next `n` stream bytes behind the buffered ones: read()
  /// into it, then commit() what arrived. The pair is feed() without
  /// the copy; the span is valid until the next call.
  [[nodiscard]] std::span<std::uint8_t> prepare(std::size_t n);
  /// Consume the first `n` bytes of prepare()'s span, emitting every
  /// complete frame.
  void commit(std::size_t n, Events& events);

  /// Drop any buffered partial frame (connection closed mid-frame; the
  /// device re-sends the whole report on its next connection). Returns
  /// the bytes discarded.
  std::size_t reset();

  /// Bytes held waiting for the rest of a frame.
  [[nodiscard]] std::size_t buffered() const { return end_ - begin_; }

 private:
  /// Emit every complete frame in buffer_[begin_, end_).
  void parse(Events& events);
  /// Skip past the malformed prefix to the next candidate magic.
  std::size_t resync_skip() const;

  /// buffer_[begin_, end_) holds the stream bytes not yet parsed; the
  /// parsed prefix is moved out only when prepare() needs the room.
  std::vector<std::uint8_t> buffer_;
  std::size_t begin_{0};
  std::size_t end_{0};
};

}  // namespace nd::net
