// PCLMULQDQ folding kernel of common::crc32 — its own TU so the rest of
// nd_common compiles without any -m flags; the kernel itself is a
// target("pclmul,sse4.1") function that only runs behind the runtime
// CPUID probe below. Off x86 the probe says no and crc32 runs
// slice-by-8 alone.
//
// Implements the folding scheme from Intel's "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" white paper for the
// reflected IEEE polynomial: four 128-bit lanes fold 64 bytes per step,
// the lanes collapse to one, remaining 16-byte blocks single-fold, and
// a Barrett reduction brings the 128-bit remainder down to the 32-bit
// CRC. The k-constants are x^n mod P for the folding distances, in the
// bit-reflected form the instruction wants.
#include "common/crc32.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ND_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace nd::common::detail {

#if defined(ND_CRC32_CLMUL)

bool crc32_clmul_supported() {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

[[gnu::target("pclmul,sse4.1")]] std::uint32_t crc32_clmul(
    const std::uint8_t* buf, std::size_t len, std::uint32_t state) {
  // Each pair in memory order (low qword first — _mm_set_epi64x takes
  // high, low).
  // k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P — 64-byte folds.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // k3 = x^(128+32) mod P, k4 = x^(128-32) mod P — 16-byte folds.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // k5 = x^64 mod P — the 128→64 fold constant.
  const __m128i k5k0 = _mm_set_epi64x(0x0000000000, 0x0163cd6124);
  // P' and µ for the Barrett reduction.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

  // Caller guarantees len >= kClmulMinBytes (64) and len % 16 == 0.
  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
  buf += 64;
  len -= 64;

  x0 = k1k2;
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);

    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);

    y5 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
    y6 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
    y7 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
    y8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));

    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);

    buf += 64;
    len -= 64;
  }

  // Collapse the four lanes into one.
  x0 = k3k4;

  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);

  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);

  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  // Single-fold any remaining 16-byte blocks.
  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));

    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);

    buf += 16;
    len -= 16;
  }

  // Fold 128 bits to 64.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);

  x0 = k5k0;

  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduce to 32 bits.
  x0 = poly;

  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#else

bool crc32_clmul_supported() { return false; }

std::uint32_t crc32_clmul(const std::uint8_t* buf, std::size_t len,
                          std::uint32_t state) {
  return crc32_slice8(buf, len, state);
}

#endif

}  // namespace nd::common::detail
