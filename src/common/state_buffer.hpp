// Byte-stream serialization for crash-safe checkpoints.
//
// StateWriter/StateReader are the substrate MeasurementDevice::save_state
// and restore_state build on: a flat big-endian byte buffer (the same
// byte order as the report codec) with strict bounds checking on read.
// Every decode failure throws StateError — a corrupt or truncated
// checkpoint must never be silently half-applied to a live device.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/byte_order.hpp"

namespace nd::common {

/// Checkpoint serialization/restore failure (truncation, bad magic or
/// CRC, configuration mismatch, unsupported device).
class StateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only big-endian byte buffer.
class StateWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { append_be16(buf_, v); }
  void put_u32(std::uint32_t v) { append_be32(buf_, v); }
  void put_u64(std::uint64_t v) { append_be64(buf_, v); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Length-prefixed string (u32 length + raw bytes).
  void put_string(const std::string& s) {
    if (s.size() > 0xFFFFFFFFULL) {
      throw StateError("state: string too large to serialize");
    }
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a StateWriter buffer; throws StateError on any
/// over-read so a truncated checkpoint cannot produce garbage state.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    const std::uint16_t v = load_be16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    const std::uint32_t v = load_be32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    const std::uint64_t v = load_be64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string string() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Restores must consume the buffer exactly; trailing bytes mean the
  /// state came from a different configuration or format version.
  void expect_end() const {
    if (remaining() != 0) {
      throw StateError("state: trailing bytes after restore");
    }
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw StateError("state: truncated buffer");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace nd::common
