#include "reporting/spool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "reporting/record_codec.hpp"
#include "reporting/wal.hpp"

namespace nd::reporting {

namespace {

namespace fs = std::filesystem;

/// Upper bound handed to wal::scan: no legitimate report payload
/// approaches this, so a damaged length field cannot send recovery
/// chasing gigabytes.
constexpr std::size_t kMaxRecordPayload = std::size_t{1} << 28;

std::string segment_name(std::uint64_t seq, bool open) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "wal-%06llu.seg",
                static_cast<unsigned long long>(seq));
  std::string name = buffer;
  if (open) name += ".open";
  return name;
}

std::vector<std::uint8_t> read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

SpoolWal::SpoolWal(const SpoolWalConfig& config) : config_(config) {
  config_.fsync_batch = std::max<std::uint32_t>(config_.fsync_batch, 1);
  if (config_.metrics != nullptr) {
    auto& m = *config_.metrics;
    const auto& l = config_.metric_labels;
    tm_appended_ = &m.counter("nd_spool_appended_total", l);
    tm_recovered_ = &m.counter("nd_spool_recovered_total", l);
    tm_torn_ = &m.counter("nd_spool_torn_records_total", l);
    tm_dropped_ = &m.counter("nd_spool_dropped_total", l);
    tm_shed_ = &m.counter("nd_spool_shed_records_total", l);
    tm_evicted_ = &m.counter("nd_spool_evicted_total", l);
    tm_write_errors_ = &m.counter("nd_spool_write_errors_total", l);
    tm_fsyncs_ = &m.counter("nd_spool_fsync_total", l);
    tm_backlog_ = &m.gauge("nd_spool_backlog_frames", l);
    tm_disk_bytes_ = &m.gauge("nd_spool_disk_bytes", l);
  }
  recover();
}

SpoolWal::~SpoolWal() {
  if (active_fd_ >= 0) {
    sync();
    ::close(active_fd_);
  }
}

void SpoolWal::sync() {
  if (active_fd_ < 0 || !config_.fsync || unsynced_ == 0) return;
  ::fsync(active_fd_);
  unsynced_ = 0;
  ++stats_.fsyncs;
  if (tm_fsyncs_ != nullptr) tm_fsyncs_->increment();
}

void SpoolWal::recover() {
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec) {
    throw SpoolError("spool: cannot create directory '" +
                     config_.directory + "': " + ec.message());
  }

  struct Found {
    std::uint64_t seq{0};
    fs::path path;
    bool open{false};
  };
  std::vector<Found> found;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    bool open = false;
    if (name.ends_with(".seg.open")) {
      open = true;
    } else if (!name.ends_with(".seg")) {
      continue;
    }
    if (!name.starts_with("wal-")) continue;
    const std::size_t digits_end = name.find('.');
    std::uint64_t seq = 0;
    bool numeric = digits_end > 4;
    for (std::size_t i = 4; numeric && i < digits_end; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (!numeric) continue;
    found.push_back({seq, entry.path(), open});
  }
  if (ec) {
    throw SpoolError("spool: cannot list directory '" +
                     config_.directory + "': " + ec.message());
  }
  std::ranges::sort(found,
                    [](const Found& a, const Found& b) { return a.seq < b.seq; });

  std::uint64_t max_seq = 0;
  for (const Found& file : found) {
    max_seq = std::max(max_seq, file.seq);
    const std::vector<std::uint8_t> bytes = read_file_bytes(file.path);
    std::size_t live = 0;
    std::uint64_t decode_failures = 0;
    const wal::ScanStats scanned = wal::scan(
        bytes, kFrameMagic, kMaxRecordPayload,
        [&](std::span<const std::uint8_t> payload) {
          try {
            const DecodedReport decoded = decode_full(payload);
            frames_.push_back(Frame{frame_payload(payload),
                                    decoded.report.interval, file.seq});
            ++live;
          } catch (const CodecError&) {
            // CRC-valid record whose payload is not a report: damage
            // written before the CRC was computed. Recover-or-reject,
            // never crash.
            ++decode_failures;
          }
        });
    stats_.recovered += live;
    stats_.torn_records += scanned.torn + decode_failures;

    // Finalize any .open segment left by a crash (the tmp+rename half
    // rotation never reached), then account or discard the file.
    fs::path final_path = file.path;
    if (file.open) {
      final_path = fs::path(config_.directory) /
                   segment_name(file.seq, /*open=*/false);
      std::error_code rename_ec;
      fs::rename(file.path, final_path, rename_ec);
      if (rename_ec) final_path = file.path;
    }
    if (live == 0) {
      std::error_code remove_ec;
      fs::remove(final_path, remove_ec);
      ++stats_.segments_removed;
      continue;
    }
    std::error_code size_ec;
    const std::uint64_t size = fs::file_size(final_path, size_ec);
    segments_[file.seq] =
        Segment{final_path.string(), size_ec ? 0 : size, live, false};
    stats_.bytes_on_disk += size_ec ? 0 : size;
  }

  open_active_segment(max_seq + 1);

  if (tm_recovered_ != nullptr) tm_recovered_->add(stats_.recovered);
  if (tm_torn_ != nullptr) tm_torn_->add(stats_.torn_records);
  update_gauges();
  if (config_.trace != nullptr) {
    config_.trace->instant(
        "spool.recover", "durability",
        telemetry::TraceArgs{
            .device = config_.trace_device,
            .value = static_cast<std::int64_t>(stats_.recovered)},
        "frames");
  }
}

void SpoolWal::open_active_segment(std::uint64_t seq) {
  const fs::path path =
      fs::path(config_.directory) / segment_name(seq, /*open=*/true);
  active_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                      0644);
  if (active_fd_ < 0) {
    throw SpoolError("spool: cannot open segment '" + path.string() + "'");
  }
  active_seq_ = seq;
  segments_[seq] = Segment{path.string(), 0, 0, true};
  ++stats_.segments_created;
}

void SpoolWal::rotate_active_segment() {
  if (active_fd_ >= 0) {
    // Flush any partial group-commit batch before the rename finalizes
    // the segment: a closed .seg must hold everything it claims to.
    sync();
    ::close(active_fd_);
    active_fd_ = -1;
  }
  Segment& segment = segments_[active_seq_];
  const fs::path final_path =
      fs::path(config_.directory) / segment_name(active_seq_, /*open=*/false);
  std::error_code ec;
  fs::rename(segment.path, final_path, ec);
  if (!ec) segment.path = final_path.string();
  segment.open = false;
  if (segment.live_frames == 0) {
    // Every frame this segment held was already evicted while it was
    // active; nothing on disk is worth keeping.
    std::error_code remove_ec;
    fs::remove(segment.path, remove_ec);
    stats_.bytes_on_disk -= segment.bytes;
    segments_.erase(active_seq_);
    ++stats_.segments_removed;
  }
  open_active_segment(active_seq_ + 1);
}

bool SpoolWal::write_record(std::span<const std::uint8_t> record) {
  if (active_fd_ < 0) {
    ++stats_.write_errors;
    if (tm_write_errors_ != nullptr) tm_write_errors_->increment();
    return false;
  }
  robustness::FaultInjector* faults = config_.faults;
  if (faults != nullptr && faults->next("spool.disk_full")) {
    ++stats_.write_errors;
    if (tm_write_errors_ != nullptr) tm_write_errors_->increment();
    return false;
  }
  std::span<const std::uint8_t> to_write = record;
  bool torn = false;
  if (faults != nullptr) {
    if (const auto decision = faults->next("spool.torn_record")) {
      torn = true;
      to_write =
          record.first(robustness::truncated_size(record.size(),
                                                  decision->salt));
    }
  }
  std::size_t chunk = to_write.size();
  if (faults != nullptr && faults->next("spool.short_write")) {
    ++stats_.short_writes;
    chunk = 1;
  }
  std::size_t offset = 0;
  bool ok = true;
  while (offset < to_write.size()) {
    const std::size_t step =
        std::min(chunk == 0 ? to_write.size() : chunk,
                 to_write.size() - offset);
    const ssize_t wrote =
        ::write(active_fd_, to_write.data() + offset, step);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    offset += static_cast<std::size_t>(wrote);
  }
  Segment& segment = segments_[active_seq_];
  segment.bytes += offset;
  stats_.bytes_on_disk += offset;
  if (!ok) {
    ++stats_.write_errors;
    if (tm_write_errors_ != nullptr) tm_write_errors_->increment();
    return false;
  }
  if (torn) {
    ++stats_.torn_writes;
    return false;
  }
  // Group commit: the fsync lands once per batch; sync(), rotation and
  // the destructor flush a partial batch.
  if (config_.fsync && ++unsynced_ >= config_.fsync_batch) sync();
  return true;
}

SpoolWal::AppendResult SpoolWal::append(const core::Report& report,
                                        packet::FlowKeyKind kind,
                                        std::string_view metrics_json) {
  telemetry::ScopedTraceSpan span(
      config_.trace, "spool.append", "durability",
      telemetry::TraceArgs{
          .device = config_.trace_device,
          .interval = static_cast<std::int64_t>(report.interval)},
      "bytes");

  AppendResult result;
  core::Report shaped = report;
  std::string_view trailer = metrics_json;
  const auto needed = [&] {
    return static_cast<std::uint64_t>(
        kFrameHeaderBytes + encoded_size(shaped, trailer.size()));
  };
  const auto budget_left = [&] {
    return config_.max_total_bytes > stats_.bytes_on_disk
               ? config_.max_total_bytes - stats_.bytes_on_disk
               : 0;
  };

  // Reclaim before shedding: already-sent frames are the cheapest thing
  // to give up (the collector very likely has them).
  while (needed() > budget_left() && watermark_ > 0) evict_front();
  if (needed() > budget_left()) trailer = {};
  if (needed() > budget_left()) {
    // Shed smallest flows, keeping the heavy-hitter prefix — the same
    // largest-first-keep policy CollectionChannel applies to its byte
    // budget. Shard status records are never shed.
    const std::uint64_t base =
        kFrameHeaderBytes + kHeaderBytes +
        shaped.shards.size() * kShardRecordBytes;
    const std::uint64_t budget = budget_left();
    if (budget < base) {
      ++stats_.dropped;
      if (tm_dropped_ != nullptr) tm_dropped_->increment();
      update_gauges();
      return result;
    }
    const std::size_t fit =
        static_cast<std::size_t>((budget - base) / kRecordBytes);
    const std::uint64_t shed = shaped.flows.size() - fit;
    shaped.flows.resize(fit);
    stats_.records_shed += shed;
    if (tm_shed_ != nullptr) tm_shed_->add(shed);
    result.records_shed = shed;
  }

  std::vector<std::uint8_t> frame_bytes =
      frame_payload(encode(shaped, kind, trailer));
  span.mutable_args().value =
      static_cast<std::int64_t>(frame_bytes.size());

  Segment& active = segments_[active_seq_];
  if (active.bytes > 0 &&
      active.bytes + frame_bytes.size() > config_.max_segment_bytes) {
    rotate_active_segment();
  }
  result.durable = write_record(frame_bytes);
  frames_.push_back(
      Frame{std::move(frame_bytes), shaped.interval, active_seq_});
  ++segments_[active_seq_].live_frames;
  result.index = frames_.size() - 1;
  ++stats_.appended;
  if (tm_appended_ != nullptr) tm_appended_->increment();
  update_gauges();
  return result;
}

void SpoolWal::ack() {
  if (watermark_ >= frames_.size()) return;
  ++watermark_;
  ++stats_.acked;
  update_gauges();
}

void SpoolWal::rewind() {
  if (watermark_ == 0) return;
  watermark_ = 0;
  ++stats_.rewinds;
  update_gauges();
}

void SpoolWal::evict_front() {
  const Frame front = std::move(frames_.front());
  frames_.pop_front();
  --watermark_;
  ++stats_.evicted;
  if (tm_evicted_ != nullptr) tm_evicted_->increment();
  const auto it = segments_.find(front.segment);
  if (it == segments_.end()) return;
  Segment& segment = it->second;
  if (segment.live_frames > 0) --segment.live_frames;
  if (segment.live_frames == 0 && !segment.open) {
    std::error_code ec;
    fs::remove(segment.path, ec);
    stats_.bytes_on_disk -= segment.bytes;
    ++stats_.segments_removed;
    segments_.erase(it);
  }
}

void SpoolWal::update_gauges() {
  if (tm_backlog_ != nullptr) {
    tm_backlog_->set(static_cast<double>(backlog()));
  }
  if (tm_disk_bytes_ != nullptr) {
    tm_disk_bytes_->set(static_cast<double>(stats_.bytes_on_disk));
  }
}

}  // namespace nd::reporting
