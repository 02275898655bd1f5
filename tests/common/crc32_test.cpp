// Differential suite for common::crc32 and its two kernels.
//
// The contract under test is bit-identity: slice-by-8, the PCLMULQDQ
// folding kernel (on hosts that run it) and the crc32() entry point
// that picks between them must each produce exactly the CRC a bitwise
// oracle does, for every length, alignment and chunking — a CRC that
// differs by kernel would corrupt every wire frame, WAL record,
// journal record and checkpoint written on one host and read on
// another.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
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

/// One way to compute the CRC (in the CRC domain, seed-chained like
/// crc32()) and the lengths it accepts: a multiple of `step`, at least
/// `min_len`.
struct Kernel {
  const char* name;
  std::function<std::uint32_t(const std::uint8_t*, std::size_t,
                              std::uint32_t)>
      crc;
  std::size_t min_len = 0;
  std::size_t step = 1;

  [[nodiscard]] bool accepts(std::size_t len) const {
    return len >= min_len && len % step == 0;
  }
};

/// The entry point, slice-by-8, and the folding kernel when the host
/// runs it.
std::vector<Kernel> kernels() {
  std::vector<Kernel> out = {
      {"crc32",
       [](const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
         return crc32({p, n}, seed);
       }},
      {"slice8",
       [](const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
         return ~detail::crc32_slice8(p, n, ~seed);
       }},
  };
  if (detail::crc32_clmul_supported()) {
    out.push_back({"pclmul",
                   [](const std::uint8_t* p, std::size_t n,
                      std::uint32_t seed) {
                     return ~detail::crc32_clmul(p, n, ~seed);
                   },
                   detail::kClmulMinBytes, 16});
  }
  return out;
}

TEST(Crc32, KnownVector) {
  // The IEEE CRC-32 check value: CRC("123456789") = 0xCBF43926.
  const std::string_view s = "123456789";
  const std::uint32_t got =
      crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  EXPECT_EQ(got, 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

// Every length 0..512 x every alignment 0..63 each kernel accepts,
// against the bitwise oracle. This sweep crosses every kernel
// boundary: the <8-byte tail loop, the 8-byte slice8 step, the 64-byte
// pclmul threshold, and the 16-byte folding remainder.
TEST(Crc32, ExhaustiveLengthAlignmentDifferential) {
  const std::vector<std::uint8_t> pool = random_bytes(512 + 64, 42);
  for (const Kernel& kernel : kernels()) {
    for (std::size_t len = 0; len <= 512; ++len) {
      if (!kernel.accepts(len)) continue;
      for (std::size_t align = 0; align < 64; ++align) {
        const std::uint8_t* p = pool.data() + align;
        ASSERT_EQ(kernel.crc(p, len, 0), crc32_bitwise(p, len, 0))
            << kernel.name << " len=" << len << " align=" << align;
      }
    }
  }
}

// Chunked (seed-chained) evaluation must equal one-shot for every
// split point a kernel accepts: the frame parser and WAL scanners
// chain CRCs over header + payload spans.
TEST(Crc32, ChunkedEqualsOneShot) {
  const std::vector<std::uint8_t> data = random_bytes(1024, 7);
  const std::uint32_t want = crc32_bitwise(data.data(), data.size(), 0);
  for (const Kernel& kernel : kernels()) {
    EXPECT_EQ(kernel.crc(data.data(), data.size(), 0), want) << kernel.name;
    for (const std::size_t cut :
         {std::size_t{1}, std::size_t{7}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{500},
          std::size_t{512}, std::size_t{960}, std::size_t{1023}}) {
      if (!kernel.accepts(cut) || !kernel.accepts(data.size() - cut)) {
        continue;
      }
      const std::uint32_t first = kernel.crc(data.data(), cut, 0);
      ASSERT_EQ(kernel.crc(data.data() + cut, data.size() - cut, first),
                want)
          << kernel.name << " cut=" << cut;
    }
    // Many tiny chunks: the smallest the kernel accepts, one per call.
    const std::size_t chunk = std::max(kernel.min_len, kernel.step);
    std::uint32_t running = 0;
    for (std::size_t at = 0; at < data.size(); at += chunk) {
      running = kernel.crc(data.data() + at, chunk, running);
    }
    EXPECT_EQ(running, want) << kernel.name << " chunk=" << chunk;
  }
}

// A CRC that misses flipped bits is not a CRC: every single-byte flip
// and every truncation of a hardware-width buffer must change the sum,
// whichever kernel computes it.
TEST(Crc32, FlipAndTruncationFuzz) {
  for (const Kernel& kernel : kernels()) {
    std::vector<std::uint8_t> data = random_bytes(256, 99);
    const std::uint32_t clean = kernel.crc(data.data(), data.size(), 0);
    Rng rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t pos = rng.word() % data.size();
      const std::uint8_t flip =
          static_cast<std::uint8_t>(1u << (rng.word() % 8));
      data[pos] ^= flip;
      EXPECT_NE(kernel.crc(data.data(), data.size(), 0), clean)
          << kernel.name << " pos=" << pos;
      data[pos] ^= flip;
    }
    EXPECT_EQ(kernel.crc(data.data(), data.size(), 0), clean) << kernel.name;
    for (std::size_t cut = 0; cut < data.size(); ++cut) {
      if (!kernel.accepts(cut)) continue;
      ASSERT_NE(kernel.crc(data.data(), cut, 0), clean)
          << kernel.name << " cut=" << cut;
    }
  }
}

// Pit the folding kernel against slice8 directly in the state domain,
// over every 16-byte-multiple length crc32() can hand it.
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

TEST(Crc32, ByteCountersAndMetricsSync) {
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    before += crc32_bytes_processed(i);
  }
  const std::uint64_t pclmul_before = crc32_bytes_processed(1);
  const std::vector<std::uint8_t> data = random_bytes(4096, 5);
  (void)crc32(data);
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < kCrc32ImplCount; ++i) {
    after += crc32_bytes_processed(i);
  }
  EXPECT_EQ(after - before, data.size());
  // A 16-byte-multiple buffer goes wholly through the folding kernel
  // wherever the host runs it, and never through it elsewhere.
  EXPECT_STREQ(kCrc32Impls[1], "pclmul");
  EXPECT_EQ(crc32_bytes_processed(1) - pclmul_before,
            detail::crc32_clmul_supported() ? data.size() : 0u);

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
