#include "common/crc32.hpp"

#include <atomic>

#include "telemetry/metrics.hpp"

namespace nd::common {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE CRC-32

// Slice-by-8 tables, built at compile time (no lazily-built static, no
// guard-variable branch per call). t[k][b] advances byte b through k+1
// zero bytes, so one 8-byte step is eight independent lookups XORed
// together.
struct Slice8Tables {
  std::uint32_t t[8][256];
};

constexpr Slice8Tables make_tables() {
  Slice8Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Slice8Tables kTables = make_tables();

constexpr std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

enum ImplIndex : std::size_t { kImplSlice8 = 0, kImplPclmul = 1 };

std::atomic<std::uint64_t> g_bytes[kCrc32ImplCount];

}  // namespace

namespace detail {

std::uint32_t crc32_slice8(const std::uint8_t* p, std::size_t n,
                           std::uint32_t c) {
  while (n >= 8) {
    c ^= load_u32le(p);
    c = kTables.t[7][c & 0xFFu] ^ kTables.t[6][(c >> 8) & 0xFFu] ^
        kTables.t[5][(c >> 16) & 0xFFu] ^ kTables.t[4][c >> 24] ^
        kTables.t[3][p[4]] ^ kTables.t[2][p[5]] ^ kTables.t[1][p[6]] ^
        kTables.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = kTables.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed_crc) {
  std::uint32_t state = ~seed_crc;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  if (n >= detail::kClmulMinBytes && detail::crc32_clmul_supported()) {
    const std::size_t folded = n & ~static_cast<std::size_t>(15);
    state = detail::crc32_clmul(p, folded, state);
    g_bytes[kImplPclmul].fetch_add(folded, std::memory_order_relaxed);
    p += folded;
    n -= folded;
  }
  if (n != 0) {
    state = detail::crc32_slice8(p, n, state);
    g_bytes[kImplSlice8].fetch_add(n, std::memory_order_relaxed);
  }
  return ~state;
}

std::uint64_t crc32_bytes_processed(std::size_t impl_index) {
  if (impl_index >= kCrc32ImplCount) return 0;
  return g_bytes[impl_index].load(std::memory_order_relaxed);
}

void sync_crc32_metrics(telemetry::MetricsRegistry& registry) {
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    auto& counter =
        registry.counter("nd_crc_bytes_total", {{"impl", kCrc32Impls[i]}});
    const std::uint64_t total = crc32_bytes_processed(i);
    const std::uint64_t seen = counter.value();
    if (total > seen) counter.add(total - seen);
  }
}

}  // namespace nd::common
