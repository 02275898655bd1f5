#include "hash/hash.hpp"

namespace nd::hash {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TabulationHash::TabulationHash(common::Rng& seed_source) : tables_(kCells) {
  for (auto& cell : tables_) {
    cell = seed_source.word();
  }
}

namespace {

/// Draws the two words every stage has always taken before its tables
/// (once a multiply-shift multiplier and offset), so the tables — and
/// every bucket, report and checkpoint built on them — keep the seed
/// words they were first defined with.
common::Rng& skip_legacy_words(common::Rng& seed_source) {
  (void)seed_source.word();
  (void)seed_source.word();
  return seed_source;
}

}  // namespace

StageHash::StageHash(common::Rng& seed_source, std::uint64_t buckets)
    : buckets_(buckets), tab_(skip_legacy_words(seed_source)) {}

StageHashBank::StageHashBank(std::vector<StageHash> stages)
    : stages_(std::move(stages)) {
  const std::size_t d = stages_.size();
  if (d == 0 || d > kMaxInterleavedDepth) return;
  interleaved_.resize(TabulationHash::kCells * d);
  for (std::size_t s = 0; s < d; ++s) {
    const auto tables = stages_[s].tabulation().tables();
    for (std::size_t cell = 0; cell < TabulationHash::kCells; ++cell) {
      interleaved_[cell * d + s] = tables[cell];
    }
  }
}

HashFamily::HashFamily(std::uint64_t master_seed)
    : rng_(splitmix64(master_seed)),
      scramble_a_(rng_.word() | 1ULL),
      scramble_b_(rng_.word()) {}

StageHash HashFamily::make_stage(std::uint64_t buckets) {
  return StageHash(rng_, buckets);
}

}  // namespace nd::hash
