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

MultiplyShiftHash::MultiplyShiftHash(common::Rng& seed_source)
    : a_(seed_source.word() | 1ULL), b_(seed_source.word()) {}

MultiplyShiftHash::MultiplyShiftHash(std::uint64_t a, std::uint64_t b)
    : a_(a | 1ULL), b_(b) {}

TabulationHash::TabulationHash(common::Rng& seed_source) {
  for (auto& table : tables_) {
    for (auto& cell : table) {
      cell = seed_source.word();
    }
  }
}

StageHash::StageHash(HashKind kind, common::Rng& seed_source,
                     std::uint64_t buckets)
    // The multiply-shift constants are always drawn first so the
    // tabulation tables consume exactly the same seed words as before
    // the active-only storage change — tabulation-mode experiments stay
    // bit-identical across that refactor.
    : ms_(seed_source),
      tab_(kind == HashKind::kTabulation
               ? std::make_shared<const TabulationHash>(seed_source)
               : nullptr),
      buckets_(buckets) {}

StageHashBank::StageHashBank(std::vector<StageHash> stages)
    : stages_(std::move(stages)) {
  const std::size_t d = stages_.size();
  if (d == 0 || d > kMaxInterleavedDepth) return;
  for (const StageHash& stage : stages_) {
    if (stage.tabulation() == nullptr) return;
  }
  interleaved_.resize(8 * 256 * d);
  for (std::size_t s = 0; s < d; ++s) {
    const auto& tables = stages_[s].tabulation()->tables();
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t b = 0; b < 256; ++b) {
        interleaved_[((i << 8) | b) * d + s] = tables[i][b];
      }
    }
  }
}

HashFamily::HashFamily(std::uint64_t master_seed, HashKind kind)
    : kind_(kind),
      rng_(splitmix64(master_seed)),
      scramble_a_(rng_.word() | 1ULL),
      scramble_b_(rng_.word()) {}

StageHash HashFamily::make_stage(std::uint64_t buckets) {
  return StageHash(kind_, rng_, buckets);
}

}  // namespace nd::hash
