// Dispatch-layered CRC-32 (reflected IEEE polynomial 0xEDB88320) — the
// one checksum every collection-plane byte passes through: NDFR frame
// headers, spool WAL records, the collector journal, and checkpoint
// trailers all carry this CRC, so its per-byte cost bounds the whole
// store-and-forward path.
//
// Three tiers behind the common::active_simd() switch (cpu_features):
//
//   * slice-by-8 — constexpr-generated tables, eight bytes per step,
//     always available; the portable/scalar tier and the oracle the
//     differential suites compare against.
//   * PCLMULQDQ — x86 128-bit carry-less-multiply folding (Intel's
//     "Fast CRC Computation Using PCLMULQDQ" scheme, four 16-byte
//     lanes per step). Note the SSE4.2 crc32 *instruction* computes
//     CRC-32C (Castagnoli) and is deliberately NOT used: the wire and
//     disk formats are IEEE, and bit-identity across tiers is a hard
//     contract. Selected at SimdLevel::kAvx2 behind its own CPUID
//     probe, compiled as target("pclmul,sse4.1") functions so the
//     binary still runs on hosts without the instructions.
//   * ARMv8 CRC32 — the __crc32d/__crc32b instructions, which
//     implement the same reflected IEEE polynomial, so bytes on the
//     wire stay identical. Selected at SimdLevel::kNeon on aarch64.
//
// The tier is re-read from active_simd() on every call, so
// ScopedSimdLevel/ND_SIMD steer it dynamically; CRC is the only code
// those knobs reach. Results are bit-identical
// across tiers by construction and proven by the exhaustive
// differential suite (every length 0–512 × alignment 0–63 × chunked
// vs one-shot × forced level).
//
// Seed chaining matches the legacy hash::crc32 contract: pass 0 to
// start, pass the previous return value to continue a running CRC over
// concatenated spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/cpu_features.hpp"

namespace nd::telemetry {
class MetricsRegistry;
}

namespace nd::common {

/// CRC-32 over `bytes`, chained from `seed_crc` (0 starts fresh).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed_crc = 0);

/// The kernel a large buffer would hit right now, as a stable label:
/// "slice8", "pclmul", or "armv8". Follows force_simd()/ND_SIMD.
[[nodiscard]] const char* crc32_impl_name();

/// Process-wide bytes checksummed per tier, indexed by kCrc32Impls.
/// Small tails of a hardware-tier call are accounted to slice8 — the
/// counters track which kernel actually touched the bytes.
inline constexpr const char* kCrc32Impls[] = {"slice8", "pclmul", "armv8"};
inline constexpr std::size_t kCrc32ImplCount = 3;
[[nodiscard]] std::uint64_t crc32_bytes_processed(std::size_t impl_index);

/// Publish the per-tier byte counters as nd_crc_bytes_total{impl=...}
/// into `registry` (delta-synced: safe to call repeatedly, e.g. from a
/// /metrics render). Kept out of the hot path so crc32() itself only
/// bumps a relaxed atomic.
void sync_crc32_metrics(telemetry::MetricsRegistry& registry);

namespace detail {

/// Portable state-domain kernel (state = ~running_crc): exposed so the
/// differential tests can pit tiers against each other directly.
[[nodiscard]] std::uint32_t crc32_slice8(const std::uint8_t* data,
                                         std::size_t len, std::uint32_t state);

#if defined(ND_HAVE_AVX2)
/// True when the host can run the PCLMULQDQ folding kernel.
[[nodiscard]] bool crc32_clmul_supported();
/// Folding kernel: requires len >= kClmulMinBytes and len % 16 == 0.
/// State-domain like crc32_slice8.
[[nodiscard]] std::uint32_t crc32_clmul(const std::uint8_t* data,
                                        std::size_t len, std::uint32_t state);
inline constexpr std::size_t kClmulMinBytes = 64;
#endif

}  // namespace detail

}  // namespace nd::common
