// CRC-32 (reflected IEEE polynomial 0xEDB88320) — the one checksum
// every collection-plane byte passes through: NDFR frame headers, spool
// WAL records, the collector journal, and checkpoint trailers all carry
// this CRC, so its per-byte cost bounds the whole store-and-forward
// path.
//
// Two kernels, picked on every call:
//
//   * PCLMULQDQ — x86 128-bit carry-less-multiply folding (Intel's
//     "Fast CRC Computation Using PCLMULQDQ" scheme, four 16-byte
//     lanes per step), for buffers of at least kClmulMinBytes when the
//     one CPUID probe (detail::crc32_clmul_supported) says the host
//     runs it. Compiled as a target("pclmul,sse4.1") function, so the
//     binary still runs on hosts without the instructions. The SSE4.2
//     crc32 *instruction* computes CRC-32C (Castagnoli) and is
//     deliberately NOT used: the wire and disk formats are IEEE.
//   * slice-by-8 — constexpr-generated tables, eight bytes per step:
//     short buffers, the folding kernel's sub-16-byte tail, and every
//     byte on hosts without PCLMULQDQ (aarch64 included).
//
// Both kernels produce the same CRC; the differential suite proves each
// against a bitwise oracle (every length 0–512 × alignment 0–63,
// chunked vs one-shot).
//
// Seed chaining: pass 0 to start, pass the previous return value to
// continue a running CRC over concatenated spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace nd::telemetry {
class MetricsRegistry;
}

namespace nd::common {

/// CRC-32 over `bytes`, chained from `seed_crc` (0 starts fresh).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed_crc = 0);

/// Process-wide bytes checksummed per kernel, indexed by kCrc32Impls.
/// The sub-16-byte tail of a folded buffer is accounted to slice8 — the
/// counters track which kernel actually touched the bytes.
inline constexpr const char* kCrc32Impls[] = {"slice8", "pclmul"};
inline constexpr std::size_t kCrc32ImplCount = 2;
[[nodiscard]] std::uint64_t crc32_bytes_processed(std::size_t impl_index);

/// Publish the per-kernel byte counters as nd_crc_bytes_total{impl=...}
/// into `registry` (delta-synced: safe to call repeatedly, e.g. from a
/// /metrics render). Kept out of the hot path so crc32() itself only
/// bumps a relaxed atomic.
void sync_crc32_metrics(telemetry::MetricsRegistry& registry);

namespace detail {

/// The kernels in the state domain (state = ~running_crc), exposed so
/// the differential tests can prove each one directly.
[[nodiscard]] std::uint32_t crc32_slice8(const std::uint8_t* data,
                                         std::size_t len, std::uint32_t state);

/// True when the host can run crc32_clmul (x86 CPUID: PCLMULQDQ and
/// SSE4.1); always false on other architectures. Probed once.
[[nodiscard]] bool crc32_clmul_supported();
/// Folding kernel: requires crc32_clmul_supported(),
/// len >= kClmulMinBytes and len % 16 == 0.
[[nodiscard]] std::uint32_t crc32_clmul(const std::uint8_t* data,
                                        std::size_t len, std::uint32_t state);
inline constexpr std::size_t kClmulMinBytes = 64;

}  // namespace detail

}  // namespace nd::common
