// Minimal libpcap-format (.pcap) reader and writer.
//
// Substrate for feeding the measurement devices real capture files and
// for exporting synthesized traces in a format standard tools (tcpdump,
// wireshark) can open. Implements the classic pcap file format
// (magic 0xA1B2C3D4, microsecond timestamps), both byte orders on read,
// link type EN10MB.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/byte_order.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "robustness/fault.hpp"

namespace nd::pcap {

inline constexpr std::uint32_t kMagicNative = 0xA1B2C3D4;
inline constexpr std::uint32_t kMagicSwapped = 0xD4C3B2A1;
inline constexpr std::uint32_t kLinkTypeEthernet = 1;
/// Largest snaplen the reader accepts. Real captures use 65535 or
/// less; the cap bounds the reader's buffer, so a corrupt header field
/// can never become a multi-gigabyte resize.
inline constexpr std::uint32_t kMaxSnapLen = 262144;

class PcapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PcapPacket {
  common::TimestampNs timestamp_ns{0};
  std::uint32_t original_length{0};
  std::vector<std::uint8_t> data;  // captured (possibly truncated) bytes
};

/// Streaming writer. Writes the global header on construction.
class PcapWriter {
 public:
  /// snaplen caps how many frame bytes are stored per packet (classic
  /// capture truncation); the full original length is still recorded.
  explicit PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535);

  /// Write a raw frame.
  void write(common::TimestampNs timestamp_ns,
             std::span<const std::uint8_t> frame);

  /// Convenience: synthesize an Ethernet/IPv4 frame from a record and
  /// write it.
  void write(const packet::PacketRecord& record);

  [[nodiscard]] std::uint64_t packets_written() const { return count_; }

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
  std::uint64_t count_{0};
};

/// Streaming reader; handles both byte orders. Throws PcapError on a bad
/// magic or a structurally truncated file — including a partial record
/// header after the last record; only zero leftover bytes is a clean EOF.
///
/// Zero-copy: the stream is read in large blocks into one reusable
/// buffer (kReadBufferBytes, grown only for a single record larger than
/// it, never past kRecordHeaderSize + kMaxSnapLen), and each record is
/// decoded in place. next_record() parses straight from the buffer with
/// no per-packet allocation; next() returns an owning copy.
///
/// The per-record path is inline: the 16-byte record header is four
/// memcpy loads (byte-swapped only for a swapped capture), and with
/// parse_frame inline too, next_record() compiles into the caller's
/// loop. Only the cold paths stay out of line: fill() when the buffer
/// lacks the next header or body, the capture-damage sites when a
/// fault injector is attached, and throwing PcapError.
class PcapReader {
 public:
  static constexpr std::size_t kRecordHeaderSize = 16;
  static constexpr std::size_t kReadBufferBytes = 64 * 1024;

  explicit PcapReader(std::istream& in);

  /// Next raw packet, or nullopt at clean end-of-file.
  [[nodiscard]] std::optional<PcapPacket> next();

  /// Next packet parsed to a PacketRecord, skipping non-IPv4 frames.
  [[nodiscard]] std::optional<packet::PacketRecord> next_record() {
    RecordView view;
    while (next_view(view)) {
      if (auto record = packet::parse_frame(view.data, view.timestamp_ns)) {
        return record;
      }
      ++skipped_;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool swapped() const { return swapped_; }
  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
  [[nodiscard]] std::uint32_t link_type() const { return link_type_; }

  /// Records decoded so far, by next() and next_record() alike.
  [[nodiscard]] std::uint64_t records_read() const { return records_; }
  /// Records next_record() skipped because parse_frame rejected them
  /// (not IPv4, or headers truncated).
  [[nodiscard]] std::uint64_t frames_skipped() const { return skipped_; }

  /// Attach a fault injector simulating capture damage on the wire:
  /// site "pcap.truncate" shortens the returned packet's data (the
  /// stream stays aligned — the full capture is consumed first) and
  /// "pcap.corrupt" flips a payload byte. Not owned; null detaches.
  void attach_fault_injector(robustness::FaultInjector* faults) {
    faults_ = faults;
  }

 private:
  /// One record decoded in place. `data` points into buffer_ and stays
  /// valid until the next call that reads from the stream.
  struct RecordView {
    common::TimestampNs timestamp_ns{0};
    std::uint32_t original_length{0};
    std::span<std::uint8_t> data;
  };

  /// Decode the next record into `view`; false at clean end-of-file.
  bool next_view(RecordView& view) {
    if (end_ - begin_ < kRecordHeaderSize && !fill(kRecordHeaderSize)) {
      if (begin_ == end_) return false;  // clean EOF
      fail("pcap: truncated packet header");
    }
    const std::uint8_t* header = buffer_.data() + begin_;
    std::uint32_t ts_sec = common::load_le32(header);
    std::uint32_t ts_usec = common::load_le32(header + 4);
    std::uint32_t caplen = common::load_le32(header + 8);
    std::uint32_t original_length = common::load_le32(header + 12);
    if (swapped_) {
      ts_sec = common::byteswap32(ts_sec);
      ts_usec = common::byteswap32(ts_usec);
      caplen = common::byteswap32(caplen);
      original_length = common::byteswap32(original_length);
    }
    // Strict bound: a capture can never exceed the file's own snaplen,
    // which also caps the buffer at kRecordHeaderSize + kMaxSnapLen.
    if (caplen > snaplen_) fail("pcap: capture length exceeds snaplen");
    const std::size_t record_bytes = kRecordHeaderSize + caplen;
    if (end_ - begin_ < record_bytes && !fill(record_bytes)) {
      fail("pcap: truncated packet body");
    }
    view.timestamp_ns =
        static_cast<common::TimestampNs>(ts_sec) * 1'000'000'000ULL +
        static_cast<common::TimestampNs>(ts_usec) * 1000ULL;
    view.original_length = original_length;
    view.data = std::span<std::uint8_t>(
        buffer_.data() + begin_ + kRecordHeaderSize, caplen);
    begin_ += record_bytes;
    ++records_;
    if (faults_ != nullptr) apply_faults(view);
    return true;
  }
  /// Make at least `need` unconsumed bytes available in buffer_; false
  /// if the stream ends first.
  bool fill(std::size_t need);
  /// Apply the capture-damage sites to a consumed record.
  void apply_faults(RecordView& view);
  [[noreturn]] static void fail(const char* message);

  std::istream& in_;
  std::vector<std::uint8_t> buffer_;
  std::size_t begin_{0};  // first unconsumed byte in buffer_
  std::size_t end_{0};    // one past the last byte read into buffer_
  bool stream_ended_{false};
  bool swapped_{false};
  std::uint32_t snaplen_{0};
  std::uint32_t link_type_{0};
  std::uint64_t records_{0};
  std::uint64_t skipped_{0};
  robustness::FaultInjector* faults_{nullptr};
};

/// Write a whole trace to a file. Returns packets written.
std::uint64_t write_pcap_file(const std::string& path,
                              std::span<const packet::PacketRecord> records,
                              std::uint32_t snaplen = 65535);

/// Read a whole file into records (non-IPv4 frames skipped).
[[nodiscard]] std::vector<packet::PacketRecord> read_pcap_file(
    const std::string& path);

}  // namespace nd::pcap
