#include "core/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/byte_order.hpp"
#include "common/crc32.hpp"

namespace nd::core {

std::vector<std::uint8_t> encode_checkpoint(
    const SessionCheckpoint& checkpoint) {
  if (checkpoint.device_name.size() > 0xFFFFFFFFULL ||
      checkpoint.device_state.size() > 0xFFFFFFFFULL) {
    throw common::StateError("checkpoint: field too large to serialize");
  }
  const std::size_t name = checkpoint.device_name.size();
  const std::size_t state = checkpoint.device_state.size();
  // magic, version, 2 clocks, started, 2 counters, intervals, name and
  // state (each u32-length-prefixed), CRC.
  std::vector<std::uint8_t> bytes(4 + 1 + 16 + 1 + 16 + 4 + 4 + name + 4 +
                                  state + 4);
  std::uint8_t* at = bytes.data();
  common::store_be32(at, kCheckpointMagic);
  at[4] = kCheckpointVersion;
  common::store_be64(at + 5, checkpoint.interval_ns);
  common::store_be64(at + 13, checkpoint.current_end_ns);
  at[21] = checkpoint.started ? 1 : 0;
  common::store_be64(at + 22, checkpoint.packets);
  common::store_be64(at + 30, checkpoint.unclassified);
  common::store_be32(at + 38, checkpoint.intervals_closed);
  common::store_be32(at + 42, static_cast<std::uint32_t>(name));
  at += 46;
  if (name != 0) std::memcpy(at, checkpoint.device_name.data(), name);
  at += name;
  common::store_be32(at, static_cast<std::uint32_t>(state));
  at += 4;
  if (state != 0) std::memcpy(at, checkpoint.device_state.data(), state);
  const std::size_t body = bytes.size() - 4;
  common::store_be32(bytes.data() + body,
                     common::crc32(std::span(bytes).first(body)));
  return bytes;
}

SessionCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) {
    throw common::StateError("checkpoint: buffer shorter than its CRC");
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t stored =
      (static_cast<std::uint32_t>(bytes[body]) << 24) |
      (static_cast<std::uint32_t>(bytes[body + 1]) << 16) |
      (static_cast<std::uint32_t>(bytes[body + 2]) << 8) |
      static_cast<std::uint32_t>(bytes[body + 3]);
  if (common::crc32(bytes.subspan(0, body)) != stored) {
    throw common::StateError("checkpoint: CRC mismatch (corrupt or torn)");
  }
  common::StateReader in(bytes.subspan(0, body));
  if (in.u32() != kCheckpointMagic) {
    throw common::StateError("checkpoint: bad magic");
  }
  if (in.u8() != kCheckpointVersion) {
    throw common::StateError("checkpoint: unsupported version");
  }
  SessionCheckpoint checkpoint;
  checkpoint.interval_ns = in.u64();
  checkpoint.current_end_ns = in.u64();
  checkpoint.started = in.boolean();
  checkpoint.packets = in.u64();
  checkpoint.unclassified = in.u64();
  checkpoint.intervals_closed = in.u32();
  checkpoint.device_name = in.string();
  const std::uint32_t state_bytes = in.u32();
  const std::span<const std::uint8_t> state = in.bytes(state_bytes);
  checkpoint.device_state.assign(state.begin(), state.end());
  in.expect_end();
  return checkpoint;
}

void save_checkpoint_file(const std::string& path,
                          const SessionCheckpoint& checkpoint,
                          telemetry::TraceRecorder* trace) {
  telemetry::ScopedTraceSpan span(
      trace, "checkpoint.save", "session",
      telemetry::TraceArgs{
          -1, -1, static_cast<std::int64_t>(checkpoint.intervals_closed)},
      "bytes");
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  span.mutable_args().value = static_cast<std::int64_t>(bytes.size());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw common::StateError("checkpoint: cannot open " + tmp +
                               " for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      // Don't leave a half-written .tmp behind: the previous checkpoint
      // at `path` is still intact, and a stale tmp would shadow every
      // future save attempt's failure.
      std::error_code cleanup;
      std::filesystem::remove(tmp, cleanup);
      throw common::StateError("checkpoint: short write to " + tmp);
    }
  }
  std::error_code error;
  std::filesystem::rename(tmp, path, error);
  if (error) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    throw common::StateError("checkpoint: cannot rename " + tmp + " to " +
                             path + ": " + error.message());
  }
}

SessionCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw common::StateError("checkpoint: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

}  // namespace nd::core
