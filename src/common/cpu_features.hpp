// One-shot CPU feature probe + dispatch level for the CRC-32 tiers.
//
// The only consumer is common/crc32, which picks its kernel from the
// level resolved here: PCLMULQDQ folding at kAvx2 on x86, the ARMv8
// CRC32 instructions at kNeon on aarch64, slice-by-8 at kScalar. The
// device hot path (flow-memory tag probe, stage-hash bank, stage
// counter min) has exactly one portable implementation and never asks.
// There is one place where the tier is decided and one knob that
// forces each one:
//
//   * compile time — hardware tiers exist only when the toolchain can
//     emit them (x86 GCC/Clang via target attributes, __ARM_NEON /
//     aarch64 for ARM) and ND_DISABLE_SIMD is off (-DND_DISABLE_SIMD=ON
//     builds slice-by-8 only, the bit-rot canary);
//   * run time — detected_simd() asks the CPU once (CPUID on x86);
//   * override — the ND_SIMD environment variable (scalar|avx2|neon),
//     read once, or force_simd() for in-process tests. Overrides can
//     only lower the level: requesting an instruction set the host
//     cannot run silently clamps to what it can.
//
// crc32() re-reads active_simd() on every call, so a force applies to
// the next checksum — which is what the cross-tier differential tests
// rely on.
#pragma once

#include <cstdint>

// Which hardware tiers the toolchain can emit. The x86 tier is built as
// [[gnu::target]] functions, so it compiles without -m flags and is
// safe to link into binaries that must still run on older hosts; it
// executes only behind the runtime CPUID check.
#if !defined(ND_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ND_HAVE_AVX2 1
#endif
#if !defined(ND_DISABLE_SIMD) && defined(__ARM_NEON)
#define ND_HAVE_NEON 1
#endif

namespace nd::common {

/// Dispatch level, ordered weakest to strongest so clamping is min().
enum class SimdLevel : std::uint8_t {
  kScalar = 0,  ///< portable slice-by-8, always available
  kNeon = 1,    ///< ARM hosts: the ARMv8 CRC32 tier where present
  kAvx2 = 2,    ///< x86 hosts with AVX2: the PCLMULQDQ tier
};

/// "scalar", "neon", "avx2" — label used in logs and bench series.
[[nodiscard]] const char* simd_name(SimdLevel level);

/// Strongest level both compiled in and supported by this CPU.
/// Computed once; never changes while the process runs.
[[nodiscard]] SimdLevel detected_simd();

/// The level crc32() dispatches on: detected_simd(), lowered by the
/// ND_SIMD environment override (read once at first call) and by any
/// force_simd() in effect.
[[nodiscard]] SimdLevel active_simd();

/// Test hook: pin active_simd() to `level` (clamped to detected_simd();
/// you cannot force an instruction set the host cannot run). Returns
/// the level actually applied, from the next crc32() call on.
SimdLevel force_simd(SimdLevel level);

/// Drop a force_simd() override; active_simd() falls back to the
/// environment/detected resolution.
void reset_forced_simd();

/// RAII guard for the cross-tier CRC tests: force on construction,
/// restore on destruction.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : applied_(force_simd(level)) {}
  ~ScopedSimdLevel() { reset_forced_simd(); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
  /// The clamped level actually in effect (may be weaker than asked).
  [[nodiscard]] SimdLevel applied() const { return applied_; }

 private:
  SimdLevel applied_;
};

}  // namespace nd::common
