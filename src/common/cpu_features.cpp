#include "common/cpu_features.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace nd::common {

namespace {

SimdLevel compiled_and_supported() {
#if defined(ND_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
#if defined(ND_HAVE_NEON)
  // NEON is part of the baseline ISA wherever __ARM_NEON is defined —
  // no runtime probe needed.
  return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
}

/// ND_SIMD=scalar|swar|neon|avx2 ("swar" is accepted as an alias for
/// scalar). Unknown values are ignored rather than fatal: a typo should
/// not change behaviour silently to a *different* kernel, and the
/// scalar clamp would.
SimdLevel env_clamp() {
  const char* value = std::getenv("ND_SIMD");
  if (value == nullptr || *value == '\0') return SimdLevel::kAvx2;  // no clamp
  if (std::strcmp(value, "scalar") == 0 || std::strcmp(value, "swar") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(value, "neon") == 0) return SimdLevel::kNeon;
  if (std::strcmp(value, "avx2") == 0) return SimdLevel::kAvx2;
  return SimdLevel::kAvx2;  // unknown: no clamp
}

/// force_simd state: kNotForced means "no override in effect".
constexpr int kNotForced = -1;
std::atomic<int> g_forced{kNotForced};

}  // namespace

const char* simd_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kNeon: return "neon";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kScalar: break;
  }
  return "scalar";
}

SimdLevel detected_simd() {
  static const SimdLevel detected = compiled_and_supported();
  return detected;
}

SimdLevel active_simd() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != kNotForced) return static_cast<SimdLevel>(forced);
  static const SimdLevel resolved = [] {
    const SimdLevel detected = detected_simd();
    const SimdLevel clamp = env_clamp();
    // Only two levels ever exist on one platform: scalar and the
    // platform's own SIMD set. Asking for a different platform's set
    // (ND_SIMD=neon on x86) therefore resolves to scalar, never to a
    // kernel family that was not compiled.
    return clamp >= detected ? detected : SimdLevel::kScalar;
  }();
  return resolved;
}

SimdLevel force_simd(SimdLevel level) {
  const SimdLevel detected = detected_simd();
  const SimdLevel applied =
      level >= detected ? detected : SimdLevel::kScalar;
  g_forced.store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

void reset_forced_simd() {
  g_forced.store(kNotForced, std::memory_order_relaxed);
}

}  // namespace nd::common
