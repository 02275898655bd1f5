#include "net/frame_stream.hpp"

#include <algorithm>
#include <cstring>

#include "common/byte_order.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/wal.hpp"

namespace nd::net {

namespace {

[[nodiscard]] std::vector<std::uint8_t> encode_control(
    std::uint32_t magic, std::uint32_t device_id, std::uint32_t value) {
  std::vector<std::uint8_t> out;
  out.reserve(kControlFrameBytes);
  common::append_be32(out, magic);
  common::append_be32(out, device_id);
  common::append_be32(out, value);
  common::append_be32(out, 0);  // reserved
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  return encode_control(kHelloMagic, hello.device_id, hello.epoch);
}

std::vector<std::uint8_t> encode_bye(const Bye& bye) {
  return encode_control(kByeMagic, bye.device_id, bye.intervals);
}

std::size_t FrameStreamParser::resync_skip() const {
  // The next plausible frame boundary: a 'N' that is either the last
  // buffered byte (could be a magic still arriving) or followed by 'D'.
  // A false positive only costs one more resync pass — what matters is
  // never skipping a real boundary.
  for (std::size_t i = begin_ + 1; i < end_; ++i) {
    if (buffer_[i] != 0x4E) continue;
    if (i + 1 == end_ || buffer_[i + 1] == 0x44) return i - begin_;
  }
  return end_ - begin_;
}

void FrameStreamParser::feed(std::span<const std::uint8_t> bytes,
                             Events& events) {
  if (!bytes.empty()) {
    std::memcpy(prepare(bytes.size()).data(), bytes.data(), bytes.size());
  }
  commit(bytes.size(), events);
}

std::span<std::uint8_t> FrameStreamParser::prepare(std::size_t n) {
  if (buffer_.size() - end_ < n) {
    // Out of room behind the stream: move the unparsed bytes (at most
    // one partial frame) to the front, and grow if that is not enough.
    if (begin_ != 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < n) {
      buffer_.resize(std::max(end_ + n, 2 * buffer_.size()));
    }
  }
  return {buffer_.data() + end_, n};
}

void FrameStreamParser::commit(std::size_t n, Events& events) {
  end_ += n;
  parse(events);
  if (begin_ == end_) begin_ = end_ = 0;
}

void FrameStreamParser::parse(Events& events) {
  for (;;) {
    const std::size_t avail = end_ - begin_;
    if (avail < 4) break;
    const std::uint8_t* head = buffer_.data() + begin_;
    const std::uint32_t magic = common::load_be32(head);

    if (magic == kHelloMagic || magic == kByeMagic) {
      if (avail < kControlFrameBytes) break;
      const std::uint32_t device_id = common::load_be32(head + 4);
      const std::uint32_t value = common::load_be32(head + 8);
      if (magic == kHelloMagic) {
        events.on_hello(Hello{device_id, value});
      } else {
        events.on_bye(Bye{device_id, value});
      }
      begin_ += kControlFrameBytes;
      continue;
    }

    if (magic == reporting::kFrameMagic) {
      const reporting::wal::Verified frame =
          reporting::wal::verify({head, avail}, reporting::kFrameMagic);
      if (frame.check == reporting::wal::Check::kShort) break;
      if (frame.check == reporting::wal::Check::kRecord) {
        events.on_report_frame(frame.payload);
        begin_ += frame.size();
        continue;
      }
      // A CRC mismatch, or an absurd length prefix: corruption, not a
      // frame to wait for.
    }

    // Bad magic or a frame the check rejected: skip to the next
    // candidate boundary and report how much was lost.
    const std::size_t skipped = resync_skip();
    begin_ += skipped;
    events.on_resync(skipped);
  }
}

std::size_t FrameStreamParser::reset() {
  const std::size_t dropped = end_ - begin_;
  begin_ = end_ = 0;
  return dropped;
}

}  // namespace nd::net
