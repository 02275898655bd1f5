// Hash functions for flow identifiers.
//
// The multistage filter (Section 3.2 of the paper) needs d *independent*
// hash functions, one per stage; sample-and-hold and the flow memory need
// one more for table placement. We provide:
//
//  * splitmix64 / fnv1a64 — stateless mixers for fingerprints;
//  * TabulationHash       — 3-independent seeded tabulation hashing, the
//                           stage family. Lemma 1 assumes only a
//                           2-universal family, which 3-independence
//                           covers, and its behaviour on low-entropy
//                           keys (e.g. sequential IPs) is far better
//                           than multiply-shift's;
//  * HashFamily           — derives any number of mutually independent
//                           seeded functions from one master seed.
//
// All functions map a 64-bit key fingerprint to a 64-bit value; callers
// reduce to a bucket index with reduce_to_range(), which avoids the
// modulo bias of `% b` for non-power-of-two stage sizes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace nd::hash {

/// Fibonacci/splitmix finalizer: a fast, high-quality stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over raw bytes; used to fingerprint variable-length flow keys.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Map a 64-bit hash uniformly onto [0, range) without modulo bias
/// (Lemire's multiply-high reduction).
[[nodiscard]] constexpr std::uint64_t reduce_to_range(std::uint64_t h,
                                                      std::uint64_t range) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * range) >> 64);
}

/// Seeded simple tabulation hashing over the 8 bytes of the key:
/// h(x) = T0[x0] ^ T1[x1] ^ ... ^ T7[x7]. 3-independent, and known to
/// behave like a fully random function for hashing-based sketches.
class TabulationHash {
 public:
  /// Cells in the eight 256-word tables.
  static constexpr std::size_t kCells = 8 * 256;

  explicit TabulationHash(common::Rng& seed_source);

  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      h ^= tables_[(i << 8) | ((key >> (8 * i)) & 0xFFU)];
    }
    return h;
  }

  /// Raw seeded words, T_i[b] at (i << 8) | b (exposed so StageHashBank
  /// can re-lay them out).
  [[nodiscard]] std::span<const std::uint64_t> tables() const {
    return tables_;
  }

 private:
  /// On the heap, so a StageHash stays small to move and copy.
  std::vector<std::uint64_t> tables_;
};

/// A single stage hash: a seeded tabulation function + bucket count.
class StageHash {
 public:
  StageHash(common::Rng& seed_source, std::uint64_t buckets);

  /// Bucket index in [0, buckets()).
  [[nodiscard]] std::uint64_t bucket(std::uint64_t key_fingerprint) const {
    return reduce_to_range(tab_(key_fingerprint), buckets_);
  }

  [[nodiscard]] std::uint64_t buckets() const { return buckets_; }
  /// The backing tabulation function (exposed so StageHashBank can
  /// re-lay the tables out).
  [[nodiscard]] const TabulationHash& tabulation() const { return tab_; }

 private:
  std::uint64_t buckets_;
  TabulationHash tab_;
};

/// A bank of stage hashes evaluated together, one packet at a time.
///
/// A d-stage filter walks d disjoint 16 KB table sets per packet —
/// 8*d scattered loads whose combined footprint (64 KB at d=4) blows
/// past L1. The bank stores the SAME seeded table
/// words interleaved by stage: cell (i, b) holds stages 0..d-1's words
/// contiguously, so the d stages share every cache line the packet's 8
/// byte lanes touch — 8 line streams per packet instead of 8*d. Bucket
/// values are bit-identical to evaluating the source StageHashes one by
/// one (same words, same reduce), verified by the hash unit tests.
///
/// Depths past kMaxInterleavedDepth, where a row would span multiple
/// lines anyway, skip the re-layout and fall back to per-stage
/// evaluation.
class StageHashBank {
 public:
  /// Stages interleave only up to this depth: 8 words = one cache line
  /// per (byte-lane, byte-value) cell.
  static constexpr std::size_t kMaxInterleavedDepth = 8;

  StageHashBank() = default;
  explicit StageHashBank(std::vector<StageHash> stages);

  [[nodiscard]] std::size_t depth() const { return stages_.size(); }
  [[nodiscard]] const StageHash& stage(std::size_t s) const {
    return stages_[s];
  }

  /// Compute every stage's bucket index for one fingerprint into
  /// out[0..depth()-1].
  void bucket_all(std::uint64_t key_fingerprint, std::uint64_t* out) const {
    if (interleaved_.empty()) {
      const std::size_t d = stages_.size();
      for (std::size_t s = 0; s < d; ++s) {
        out[s] = stages_[s].bucket(key_fingerprint);
      }
      return;
    }
    // Dispatch to a depth-specialised kernel: with the depth a compile
    // time constant the per-byte-lane stage loop fully unrolls, so the
    // common shallow filters pay no loop overhead for the interleaving.
    switch (stages_.size()) {
      case 1: return bucket_all_fixed<1>(key_fingerprint, out);
      case 2: return bucket_all_fixed<2>(key_fingerprint, out);
      case 3: return bucket_all_fixed<3>(key_fingerprint, out);
      case 4: return bucket_all_fixed<4>(key_fingerprint, out);
      case 5: return bucket_all_fixed<5>(key_fingerprint, out);
      case 6: return bucket_all_fixed<6>(key_fingerprint, out);
      case 7: return bucket_all_fixed<7>(key_fingerprint, out);
      default: return bucket_all_fixed<8>(key_fingerprint, out);
    }
  }

 private:
  template <std::size_t D>
  void bucket_all_fixed(std::uint64_t key_fingerprint,
                        std::uint64_t* out) const {
    std::uint64_t h[D] = {};
    const std::uint64_t* table = interleaved_.data();
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t* row =
          table +
          ((i << 8) | ((key_fingerprint >> (8 * i)) & 0xFFU)) * D;
      for (std::size_t s = 0; s < D; ++s) {
        h[s] ^= row[s];
      }
    }
    for (std::size_t s = 0; s < D; ++s) {
      out[s] = reduce_to_range(h[s], stages_[s].buckets());
    }
  }

  std::vector<StageHash> stages_;
  /// Interleaved tabulation words, ((i * 256 + b) * depth + s); empty
  /// when the bank falls back to per-stage evaluation.
  std::vector<std::uint64_t> interleaved_;
};

/// Derives independent stage hashes from one master seed. Each call to
/// `make_stage` consumes fresh seed material, so the d stages of a filter
/// are mutually independent as the analysis assumes.
class HashFamily {
 public:
  explicit HashFamily(std::uint64_t master_seed);

  [[nodiscard]] StageHash make_stage(std::uint64_t buckets);

  /// A raw seeded 64->64 function (used by the flow memory). Inline:
  /// this runs once per packet in every device's observe (it is the
  /// flow-memory placement hash), and as an out-of-line call its ~8
  /// arithmetic ops cost less than the call itself.
  [[nodiscard]] std::uint64_t scramble(std::uint64_t key) const {
    return splitmix64(scramble_a_ * key + scramble_b_);
  }

 private:
  common::Rng rng_;
  std::uint64_t scramble_a_;
  std::uint64_t scramble_b_;
};

}  // namespace nd::hash
