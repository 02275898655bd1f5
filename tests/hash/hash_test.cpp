#include "hash/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

namespace nd::hash {
namespace {

TEST(Splitmix64, DeterministicAndMixing) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  // Near inputs should produce far outputs (avalanche smoke check).
  const std::uint64_t a = splitmix64(100);
  const std::uint64_t b = splitmix64(101);
  const int bits = std::popcount(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // FNV-1a 64-bit of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ULL);
  const std::array<std::uint8_t, 1> a{{'a'}};
  EXPECT_EQ(fnv1a64(a), 0xAF63DC4C8601EC8CULL);
}

TEST(ReduceToRange, StaysInRange) {
  for (std::uint64_t h :
       {0ULL, 1ULL, 0x8000000000000000ULL, ~0ULL, 12345678901234ULL}) {
    EXPECT_LT(reduce_to_range(h, 1000), 1000u);
    EXPECT_LT(reduce_to_range(h, 7), 7u);
    EXPECT_EQ(reduce_to_range(h, 1), 0u);
  }
}

TEST(ReduceToRange, RoughlyUniform) {
  common::Rng rng(5);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    ++hits[reduce_to_range(rng.word(), 10)];
  }
  for (const int h : hits) {
    EXPECT_NEAR(h, 10'000, 600);
  }
}

double chi_square_uniform(const std::vector<int>& hits, int total) {
  const double expected =
      static_cast<double>(total) / static_cast<double>(hits.size());
  double chi = 0.0;
  for (const int h : hits) {
    const double d = h - expected;
    chi += d * d / expected;
  }
  return chi;
}

TEST(TabulationHash, UniformOverBuckets) {
  common::Rng rng(99);
  TabulationHash hash(rng);
  constexpr int kBuckets = 64;
  constexpr int kKeys = 64'000;
  std::vector<int> hits(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    // Adversarially regular keys: sequential integers.
    ++hits[reduce_to_range(hash(static_cast<std::uint64_t>(i)), kBuckets)];
  }
  // Chi-square with 63 dof: 99.99th percentile ~ 117. Allow slack.
  EXPECT_LT(chi_square_uniform(hits, kKeys), 130.0);
}

TEST(TabulationHash, DifferentSeedsDiffer) {
  common::Rng r1(1), r2(2);
  TabulationHash h1(r1), h2(r2);
  int same = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (h1(k) == h2(k)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(StageHash, BucketInRange) {
  common::Rng rng(3);
  StageHash stage(rng, 1013);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    EXPECT_LT(stage.bucket(k), 1013u);
  }
  EXPECT_EQ(stage.buckets(), 1013u);
}

TEST(StageHash, DrawsTwoSeedWordsBeforeItsTables) {
  // Every stage has always drawn two words ahead of its tables; keeping
  // that draw keeps every seeded bucket, report and checkpoint the same.
  common::Rng stage_rng(17), table_rng(17);
  const StageHash stage(stage_rng, 1013);
  (void)table_rng.word();
  (void)table_rng.word();
  const TabulationHash tables(table_rng);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(stage.bucket(k), reduce_to_range(tables(k), 1013));
  }
  EXPECT_EQ(stage_rng.word(), table_rng.word());
}

TEST(HashFamily, StagesAreIndependent) {
  HashFamily family(42);
  StageHash s1 = family.make_stage(1000);
  StageHash s2 = family.make_stage(1000);
  // Two stages must disagree on most keys, otherwise the multistage
  // filter's independence assumption (Lemma 1) is violated.
  int agree = 0;
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    if (s1.bucket(k) == s2.bucket(k)) ++agree;
  }
  // Expected agreement for independent functions: ~10000/1000 = 10.
  EXPECT_LT(agree, 40);
}

TEST(HashFamily, SameSeedReproduces) {
  HashFamily f1(7), f2(7);
  StageHash s1 = f1.make_stage(512);
  StageHash s2 = f2.make_stage(512);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(s1.bucket(k), s2.bucket(k));
  }
}

TEST(HashFamily, ScrambleIsDeterministicAndMixing) {
  HashFamily family(11);
  EXPECT_EQ(family.scramble(5), family.scramble(5));
  EXPECT_NE(family.scramble(5), family.scramble(6));
}

TEST(StageHashBank, TabulationBankMatchesPerStageBuckets) {
  // The interleaved table layout must be a pure re-layout: every
  // stage's bucket for every key identical to evaluating the source
  // StageHashes one by one.
  HashFamily family(97);
  std::vector<StageHash> stages;
  for (int d = 0; d < 4; ++d) {
    stages.push_back(family.make_stage(4096));
  }
  const std::vector<StageHash> reference = stages;
  StageHashBank bank(std::move(stages));
  ASSERT_EQ(bank.depth(), 4u);
  std::uint64_t out[4];
  for (std::uint64_t k = 0; k < 20'000; ++k) {
    const std::uint64_t fp = splitmix64(k);
    bank.bucket_all(fp, out);
    for (std::size_t d = 0; d < 4; ++d) {
      ASSERT_EQ(out[d], reference[d].bucket(fp)) << "stage " << d;
    }
  }
}

TEST(SimdStageHash, BankKernelsMatchPerStageEvaluationAtEveryDepth) {
  // Each interleaved depth is its own depth-specialised unrolled kernel:
  // every one must equal evaluating the source StageHashes one by one.
  for (std::size_t depth = 1; depth <= StageHashBank::kMaxInterleavedDepth;
       ++depth) {
    HashFamily family(97 + depth);
    std::vector<StageHash> stages;
    for (std::size_t d = 0; d < depth; ++d) {
      stages.push_back(family.make_stage(4096 + 37 * d));
    }
    const std::vector<StageHash> reference = stages;
    StageHashBank bank(std::move(stages));
    ASSERT_EQ(bank.depth(), depth);
    std::uint64_t out[StageHashBank::kMaxInterleavedDepth];
    for (std::uint64_t k = 0; k < 5'000; ++k) {
      const std::uint64_t fp = splitmix64(k);
      bank.bucket_all(fp, out);
      for (std::size_t d = 0; d < depth; ++d) {
        ASSERT_EQ(out[d], reference[d].bucket(fp))
            << "depth " << depth << " stage " << d;
      }
    }
  }
}

TEST(StageHashBank, DeepBankFallsBackAndStillMatches) {
  // Depth past kMaxInterleavedDepth skips the interleaved layout but
  // must produce the same buckets through the per-stage path.
  HashFamily family(7);
  std::vector<StageHash> stages;
  for (std::size_t d = 0; d < StageHashBank::kMaxInterleavedDepth + 2;
       ++d) {
    stages.push_back(family.make_stage(64));
  }
  const std::vector<StageHash> reference = stages;
  StageHashBank bank(std::move(stages));
  std::vector<std::uint64_t> out(bank.depth());
  for (std::uint64_t k = 0; k < 2'000; ++k) {
    bank.bucket_all(splitmix64(k), out.data());
    for (std::size_t d = 0; d < reference.size(); ++d) {
      ASSERT_EQ(out[d], reference[d].bucket(splitmix64(k)));
    }
  }
}

class StageUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageUniformity, ChiSquareAcrossSeeds) {
  common::Rng rng(GetParam());
  StageHash stage(rng, 32);
  std::vector<int> hits(32, 0);
  for (int i = 0; i < 32'000; ++i) {
    ++hits[stage.bucket(splitmix64(static_cast<std::uint64_t>(i)))];
  }
  // 31 dof; 99.99th percentile ~ 66.6.
  EXPECT_LT(chi_square_uniform(hits, 32'000), 75.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageUniformity,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace nd::hash
