#include "reporting/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/byte_order.hpp"
#include "common/crc32.hpp"

namespace nd::reporting::wal {

namespace {

/// Store the record header for a payload of `head` then `body` at `out`.
void store_header(std::uint8_t* out, std::uint32_t magic,
                  std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> body) {
  common::store_be32(out, magic);
  common::store_be32(out + 4,
                     static_cast<std::uint32_t>(head.size() + body.size()));
  common::store_be32(out + 8, common::crc32(body, common::crc32(head)));
}

/// Store the whole record (header, `head`, `body`) at `out`, which has
/// room for kHeaderBytes + head.size() + body.size() bytes.
void store_record(std::uint8_t* out, std::uint32_t magic,
                  std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> body) {
  store_header(out, magic, head, body);
  out += kHeaderBytes;
  if (!head.empty()) std::memcpy(out, head.data(), head.size());
  if (!body.empty()) std::memcpy(out + head.size(), body.data(), body.size());
}

}  // namespace

std::array<std::uint8_t, kHeaderBytes> header(
    std::uint32_t magic, std::span<const std::uint8_t> head,
    std::span<const std::uint8_t> body) {
  std::array<std::uint8_t, kHeaderBytes> out;
  store_header(out.data(), magic, head, body);
  return out;
}

void append(std::vector<std::uint8_t>& out, std::uint32_t magic,
            std::span<const std::uint8_t> payload) {
  store_record(common::grow(out, kHeaderBytes + payload.size()), magic, {},
               payload);
}

Verified verify(std::span<const std::uint8_t> bytes, std::uint32_t magic) {
  if (bytes.size() < kHeaderBytes) return {Check::kShort};
  if (common::load_be32(bytes.data()) != magic) return {Check::kBad};
  const std::size_t length = common::load_be32(bytes.data() + 4);
  // An absurd length is damage, not a record to wait for.
  if (length > kMaxPayloadBytes) return {Check::kBad};
  if (bytes.size() - kHeaderBytes < length) return {Check::kShort};
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kHeaderBytes, length);
  if (common::crc32(payload) != common::load_be32(bytes.data() + 8)) {
    return {Check::kBad};
  }
  return {Check::kRecord, payload};
}

ScanStats scan(
    std::span<const std::uint8_t> bytes, std::uint32_t magic,
    const std::function<void(std::span<const std::uint8_t>)>& sink) {
  ScanStats stats;
  (void)scan_some(bytes, magic, /*at_end=*/true, stats, sink);
  return stats;
}

std::size_t scan_some(
    std::span<const std::uint8_t> bytes, std::uint32_t magic, bool at_end,
    ScanStats& stats,
    const std::function<void(std::span<const std::uint8_t>)>& sink) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::span<const std::uint8_t> rest = bytes.subspan(pos);
    if (!at_end && rest.size() < kHeaderBytes) break;
    if (rest.size() < kHeaderBytes ||
        common::load_be32(rest.data()) != magic) {
      // Not a record start (damage, or the torn tail of the previous
      // record): resync one byte forward. A magic-field flip lands
      // here too: the damaged record is lost, its successors are not.
      ++stats.skipped_bytes;
      ++pos;
      continue;
    }
    const Verified record = verify(rest, magic);
    if (!at_end && record.check == Check::kShort) break;
    if (record.check != Check::kRecord) {
      // Magic matched but the record is not whole: a damaged length
      // field, a file that ends mid-payload (a crash between write()
      // and fsync), or a CRC mismatch. Count it torn and resync: a
      // valid record that merely *follows* damage is still found.
      ++stats.torn;
      ++stats.skipped_bytes;
      ++pos;
      continue;
    }
    ++stats.records;
    sink(rest.first(record.size()));
    pos += record.size();
  }
  return pos;
}

Writer::Writer(WriterConfig config)
    : config_(std::move(config)),
      sites_{config_.store + ".disk_full", config_.store + ".torn_record",
             config_.store + ".short_write"} {}

Writer::~Writer() { close(); }

void Writer::open(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw WalError(config_.store + ": cannot open '" + path + "'");
  }
}

void Writer::close() {
  if (fd_ < 0) return;
  sync();
  ::close(fd_);
  fd_ = -1;
}

void Writer::sync() {
  if (fd_ < 0 || config_.fsync_every == 0 || unsynced_ == 0) return;
  ::fsync(fd_);
  unsynced_ = 0;
  ++stats_.fsyncs;
  if (config_.fsync_counter != nullptr) config_.fsync_counter->increment();
}

Writer::Written Writer::append(std::uint32_t magic,
                               std::span<const std::uint8_t> head,
                               std::span<const std::uint8_t> body) {
  if (head.size() + body.size() > kMaxPayloadBytes) {
    // No scan would ever accept it; writing it would only plant damage.
    ++stats_.write_errors;
    return {};
  }
  // Sized, not cleared: every byte is stored over.
  scratch_.resize(kHeaderBytes + head.size() + body.size());
  store_record(scratch_.data(), magic, head, body);
  return write(scratch_);
}

Writer::Written Writer::write(std::span<const std::uint8_t> record) {
  robustness::FaultInjector* faults = config_.faults;
  if (fd_ < 0 || (faults != nullptr && faults->next(sites_[0]))) {
    ++stats_.write_errors;
    return {};
  }
  std::span<const std::uint8_t> to_write = record;
  bool torn = false;
  if (faults != nullptr) {
    if (const auto decision = faults->next(sites_[1])) {
      torn = true;
      to_write = record.first(
          robustness::truncated_size(record.size(), decision->salt));
    }
  }
  std::size_t chunk = to_write.size();
  if (faults != nullptr && faults->next(sites_[2])) {
    ++stats_.short_writes;
    chunk = 1;
  }
  Written written;
  while (written.bytes < to_write.size()) {
    const std::size_t step =
        std::min(chunk == 0 ? to_write.size() : chunk,
                 to_write.size() - written.bytes);
    const ssize_t wrote =
        ::write(fd_, to_write.data() + written.bytes, step);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ++stats_.write_errors;
      return written;
    }
    written.bytes += static_cast<std::size_t>(wrote);
  }
  if (torn) {
    ++stats_.torn_writes;
    written.outcome = Outcome::kTorn;
    return written;
  }
  ++stats_.appended;
  written.outcome = Outcome::kWhole;
  // Group commit: the fsync lands once per batch; sync(), open() and
  // close() flush a partial batch.
  if (config_.fsync_every != 0 && ++unsynced_ >= config_.fsync_every) {
    sync();
  }
  return written;
}

}  // namespace nd::reporting::wal
