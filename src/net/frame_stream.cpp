#include "net/frame_stream.hpp"

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
  for (std::size_t i = 1; i < buffer_.size(); ++i) {
    if (buffer_[i] != 0x4E) continue;
    if (i + 1 == buffer_.size() || buffer_[i + 1] == 0x44) return i;
  }
  return buffer_.size();
}

void FrameStreamParser::feed(std::span<const std::uint8_t> bytes,
                             Events& events) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t avail = buffer_.size() - pos;
    if (avail < 4) break;
    const std::uint8_t* head = buffer_.data() + pos;
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
      pos += kControlFrameBytes;
      continue;
    }

    if (magic == reporting::kFrameMagic) {
      const reporting::wal::Verified frame =
          reporting::wal::verify({head, avail}, reporting::kFrameMagic);
      if (frame.check == reporting::wal::Check::kShort) break;
      if (frame.check == reporting::wal::Check::kRecord) {
        events.on_report_frame(frame.payload);
        pos += frame.size();
        continue;
      }
      // A CRC mismatch, or an absurd length prefix: corruption, not a
      // frame to wait for.
    }

    // Bad magic or a frame the check rejected: skip to the next
    // candidate boundary and report how much was lost.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = 0;
    const std::size_t skipped = resync_skip();
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(skipped));
    events.on_resync(skipped);
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

std::size_t FrameStreamParser::reset() {
  const std::size_t dropped = buffer_.size();
  buffer_.clear();
  return dropped;
}

}  // namespace nd::net
