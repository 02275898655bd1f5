// Differential suite for the dispatch-layered CRC-32 kernel, plus the
// cpu_features clamping rules that pick its tier.
//
// The contract under test is bit-identity: every tier (slice8, pclmul,
// armv8) must produce exactly the bytes the portable reference does,
// for every length, alignment, chunking, and forced dispatch level —
// a CRC that differs by tier would corrupt every wire frame, WAL
// record, journal record and checkpoint written on one host and read
// on another.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "hash/hash.hpp"
#include "telemetry/metrics.hpp"

namespace nd::common {
namespace {

/// Independent oracle: the textbook bit-at-a-time loop, sharing no code
/// (and no tables) with the implementation under test.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(rng.word());
  }
  return out;
}

// --- cpu_features dispatch rules ---------------------------------------

TEST(CpuFeatures, ForcedLevelClampsToWhatTheHostRuns) {
  const SimdLevel detected = detected_simd();
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    EXPECT_EQ(scalar.applied(), SimdLevel::kScalar);
    EXPECT_EQ(active_simd(), SimdLevel::kScalar);
  }
  {
    // Asking for the detected level (or stronger) resolves to detected;
    // asking for a *different platform's* set resolves to scalar — a
    // tier that was not compiled must never be dispatched.
    ScopedSimdLevel forced(detected);
    EXPECT_EQ(forced.applied(), detected);
    EXPECT_EQ(active_simd(), detected);
  }
#if defined(ND_HAVE_AVX2)
  if (detected == SimdLevel::kAvx2) {
    ScopedSimdLevel neon(SimdLevel::kNeon);
    EXPECT_EQ(neon.applied(), SimdLevel::kScalar);
  }
#endif
#if defined(ND_HAVE_NEON)
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    EXPECT_EQ(avx2.applied(), detected);  // "stronger" clamps down
  }
#endif
}

TEST(CpuFeatures, NamesAreStable) {
  EXPECT_STREQ(simd_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_name(SimdLevel::kNeon), "neon");
  EXPECT_STREQ(simd_name(SimdLevel::kAvx2), "avx2");
}

// --- CRC-32 -------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The IEEE CRC-32 check value: CRC("123456789") = 0xCBF43926.
  const std::string_view s = "123456789";
  const std::uint32_t got =
      crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  EXPECT_EQ(got, 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesLegacyHashCrc32) {
  // hash::crc32 delegates here; the seed-chaining contract must be the
  // one its callers (stage hashing, tests) always had.
  const std::vector<std::uint8_t> data = random_bytes(777, 11);
  EXPECT_EQ(hash::crc32(data), crc32(data));
  const std::uint32_t chained = crc32(
      std::span(data).subspan(300), crc32(std::span(data).first(300)));
  EXPECT_EQ(chained, crc32(data));
  EXPECT_EQ(hash::crc32(data, 0xDEADBEEFu), crc32(data, 0xDEADBEEFu));
}

// Every length 0..512 x every alignment 0..63, each forced dispatch
// level, against the bitwise oracle. This sweep crosses every kernel
// boundary: the <8-byte tail loop, the 8-byte slice8 step, the 64-byte
// pclmul threshold, and the 16-byte folding remainder.
TEST(Crc32, ExhaustiveLengthAlignmentDifferential) {
  const std::vector<std::uint8_t> pool = random_bytes(512 + 64, 42);
  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kNeon,
                              SimdLevel::kAvx2};
  for (std::size_t len = 0; len <= 512; ++len) {
    for (std::size_t align = 0; align < 64; ++align) {
      const std::uint8_t* p = pool.data() + align;
      const std::uint32_t want = crc32_bitwise(p, len, 0);
      for (const SimdLevel level : levels) {
        ScopedSimdLevel forced(level);
        ASSERT_EQ(crc32({p, len}), want)
            << "len=" << len << " align=" << align
            << " level=" << simd_name(forced.applied())
            << " impl=" << crc32_impl_name();
      }
    }
  }
}

// Chunked (seed-chained) evaluation must equal one-shot for every
// split point, under every forced level: the frame parser and WAL
// scanners chain CRCs over header + payload spans.
TEST(Crc32, ChunkedEqualsOneShot) {
  const std::vector<std::uint8_t> data = random_bytes(1024, 7);
  const std::uint32_t want = crc32(data);
  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kNeon,
                              SimdLevel::kAvx2};
  for (const SimdLevel level : levels) {
    ScopedSimdLevel forced(level);
    EXPECT_EQ(crc32(data), want) << simd_name(forced.applied());
    for (const std::size_t cut :
         {std::size_t{1}, std::size_t{7}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{500},
          std::size_t{1023}}) {
      const std::uint32_t first = crc32(std::span(data).first(cut));
      const std::uint32_t chained =
          crc32(std::span(data).subspan(cut), first);
      ASSERT_EQ(chained, want)
          << "cut=" << cut << " level=" << simd_name(forced.applied());
    }
    // Many tiny chunks: every byte its own call.
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < 256; ++i) {
      running = crc32(std::span(data).subspan(i, 1), running);
    }
    EXPECT_EQ(running, crc32(std::span(data).first(256)))
        << simd_name(forced.applied());
  }
}

// A CRC that misses flipped bits is not a CRC: every single-byte flip
// and every truncation of a hardware-width buffer must change the sum.
TEST(Crc32, FlipAndTruncationFuzz) {
  std::vector<std::uint8_t> data = random_bytes(256, 99);
  const std::uint32_t clean = crc32(data);
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t pos = rng.word() % data.size();
    const std::uint8_t flip =
        static_cast<std::uint8_t>(1u << (rng.word() % 8));
    data[pos] ^= flip;
    EXPECT_NE(crc32(data), clean) << "pos=" << pos;
    data[pos] ^= flip;
  }
  EXPECT_EQ(crc32(data), clean);
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    ASSERT_NE(crc32(std::span(data).first(cut)), clean) << "cut=" << cut;
  }
}

TEST(Crc32, ImplNameFollowsForcedLevel) {
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    EXPECT_STREQ(crc32_impl_name(), "slice8");
  }
#if defined(ND_HAVE_AVX2)
  {
    ScopedSimdLevel forced(SimdLevel::kAvx2);
    if (forced.applied() == SimdLevel::kAvx2 &&
        detail::crc32_clmul_supported()) {
      EXPECT_STREQ(crc32_impl_name(), "pclmul");
    } else {
      EXPECT_STREQ(crc32_impl_name(), "slice8");
    }
  }
#endif
}

#if defined(ND_HAVE_AVX2)
// Pit the folding kernel against slice8 directly in the state domain,
// over every 16-byte-multiple length the dispatcher can hand it.
TEST(Crc32, ClmulKernelMatchesSlice8Directly) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "host lacks PCLMULQDQ";
  }
  const std::vector<std::uint8_t> pool = random_bytes(2048 + 64, 3);
  for (std::size_t len = detail::kClmulMinBytes; len <= 2048; len += 16) {
    for (const std::size_t align : {std::size_t{0}, std::size_t{1},
                                    std::size_t{15}, std::size_t{32}}) {
      const std::uint8_t* p = pool.data() + align;
      const std::uint32_t state = 0xFFFFFFFFu ^ 0x12345678u;
      ASSERT_EQ(detail::crc32_clmul(p, len, state),
                detail::crc32_slice8(p, len, state))
          << "len=" << len << " align=" << align;
    }
  }
}
#endif

TEST(Crc32, ByteCountersAndMetricsSync) {
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    before += crc32_bytes_processed(i);
  }
  const std::vector<std::uint8_t> data = random_bytes(4096, 5);
  (void)crc32(data);
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    after += crc32_bytes_processed(i);
  }
  EXPECT_EQ(after - before, data.size());

  telemetry::MetricsRegistry registry;
  sync_crc32_metrics(registry);
  std::uint64_t synced = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    synced += static_cast<std::uint64_t>(
        registry.counter("nd_crc_bytes_total", {{"impl", kCrc32Impls[i]}})
            .value());
  }
  EXPECT_EQ(synced, after);
  // Delta-sync: a second pass with no new CRC work adds nothing.
  sync_crc32_metrics(registry);
  std::uint64_t resynced = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    resynced += static_cast<std::uint64_t>(
        registry.counter("nd_crc_bytes_total", {{"impl", kCrc32Impls[i]}})
            .value());
  }
  EXPECT_EQ(resynced, synced);
}

}  // namespace
}  // namespace nd::common
