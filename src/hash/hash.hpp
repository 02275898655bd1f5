// Hash functions for flow identifiers.
//
// The multistage filter (Section 3.2 of the paper) needs d *independent*
// hash functions, one per stage; sample-and-hold and the flow memory need
// one more for table placement. We provide:
//
//  * splitmix64 / fnv1a64 — stateless mixers for fingerprints;
//  * MultiplyShiftHash    — a seeded 2-universal function, the family the
//                           theory (Lemma 1) assumes;
//  * TabulationHash       — 3-independent seeded tabulation hashing, a
//                           stronger family used by default because its
//                           empirical behaviour on low-entropy keys (e.g.
//                           sequential IPs) is far better;
//  * HashFamily           — derives any number of mutually independent
//                           seeded functions from one master seed.
//
// All functions map a 64-bit key fingerprint to a 64-bit value; callers
// reduce to a bucket index with reduce_to_range(), which avoids the
// modulo bias of `% b` for non-power-of-two stage sizes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/crc32.hpp"
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

/// CRC-32 (reflected, polynomial 0xEDB88320 — the IEEE 802.3 CRC) over
/// raw bytes. Frames every exported report so a corrupted payload is
/// detected and re-requested instead of silently mis-decoded; detects
/// all single-byte errors, which is what the chaos suite's bit-flip
/// tables rely on. `seed_crc` chains incremental computations (pass the
/// previous return value; 0 starts fresh). Delegates to the
/// dispatch-layered kernel in common/crc32 (constexpr slice-by-8 /
/// PCLMULQDQ / ARMv8 CRC — bit-identical across tiers).
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                         std::uint32_t seed_crc = 0) {
  return common::crc32(bytes, seed_crc);
}

/// Map a 64-bit hash uniformly onto [0, range) without modulo bias
/// (Lemire's multiply-high reduction).
[[nodiscard]] constexpr std::uint64_t reduce_to_range(std::uint64_t h,
                                                      std::uint64_t range) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * range) >> 64);
}

/// Seeded 2-universal hash: h(x) = (a*x + b) with odd multiplier, taking
/// the high bits. This is the classical multiply-shift family whose
/// pairwise independence is what the paper's stage analysis requires.
class MultiplyShiftHash {
 public:
  explicit MultiplyShiftHash(common::Rng& seed_source);
  MultiplyShiftHash(std::uint64_t a, std::uint64_t b);

  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const {
    return a_ * key + b_;
  }

 private:
  std::uint64_t a_;
  std::uint64_t b_;
};

/// Seeded simple tabulation hashing over the 8 bytes of the key:
/// h(x) = T0[x0] ^ T1[x1] ^ ... ^ T7[x7]. 3-independent, and known to
/// behave like a fully random function for hashing-based sketches.
class TabulationHash {
 public:
  explicit TabulationHash(common::Rng& seed_source);

  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      h ^= tables_[i][static_cast<std::uint8_t>(key >> (8 * i))];
    }
    return h;
  }

  /// Raw seeded tables (exposed so StageHashBank can re-lay them out).
  [[nodiscard]] const std::array<std::array<std::uint64_t, 256>, 8>&
  tables() const {
    return tables_;
  }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> tables_;
};

/// Which seeded family a HashFamily hands out.
enum class HashKind { kMultiplyShift, kTabulation };

/// A single stage hash: seeded function + bucket count.
///
/// Only the *active* family's state is stored: the multiply-shift
/// constants live inline (16 bytes) and the ~16 KB tabulation tables are
/// heap-allocated only in tabulation mode (shared on copy — they are
/// immutable after seeding). A d-stage filter in multiply-shift mode
/// used to drag d unused 16 KB tables through the cache on every packet
/// walk of its hashes_ vector; now sizeof(StageHash) is a few dozen
/// bytes regardless of kind.
class StageHash {
 public:
  StageHash(HashKind kind, common::Rng& seed_source, std::uint64_t buckets);

  /// Bucket index in [0, buckets()).
  [[nodiscard]] std::uint64_t bucket(std::uint64_t key_fingerprint) const {
    const std::uint64_t h =
        tab_ != nullptr ? (*tab_)(key_fingerprint) : ms_(key_fingerprint);
    return reduce_to_range(h, buckets_);
  }

  [[nodiscard]] std::uint64_t buckets() const { return buckets_; }
  [[nodiscard]] HashKind kind() const {
    return tab_ != nullptr ? HashKind::kTabulation
                           : HashKind::kMultiplyShift;
  }
  /// The backing tabulation function, or nullptr in multiply-shift
  /// mode (exposed so StageHashBank can re-lay the tables out).
  [[nodiscard]] const TabulationHash* tabulation() const {
    return tab_.get();
  }

 private:
  MultiplyShiftHash ms_;
  /// Set only in tabulation mode.
  std::shared_ptr<const TabulationHash> tab_;
  std::uint64_t buckets_;
};

/// A bank of stage hashes evaluated together, one packet at a time.
///
/// A d-stage filter in tabulation mode walks d disjoint 16 KB table
/// sets per packet — 8*d scattered loads whose combined footprint
/// (64 KB at d=4) blows past L1. The bank stores the SAME seeded table
/// words interleaved by stage: cell (i, b) holds stages 0..d-1's words
/// contiguously, so the d stages share every cache line the packet's 8
/// byte lanes touch — 8 line streams per packet instead of 8*d. Bucket
/// values are bit-identical to evaluating the source StageHashes one by
/// one (same words, same reduce), verified by the hash unit tests.
///
/// Multiply-shift stages (and depths past kMaxInterleavedDepth, where a
/// row would span multiple lines anyway) skip the re-layout and fall
/// back to per-stage evaluation.
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
  explicit HashFamily(std::uint64_t master_seed,
                      HashKind kind = HashKind::kTabulation);

  [[nodiscard]] StageHash make_stage(std::uint64_t buckets);

  /// A raw seeded 64->64 function (used by the flow memory). Inline:
  /// this runs once per packet in every device's observe (it is the
  /// flow-memory placement hash), and as an out-of-line call its ~8
  /// arithmetic ops cost less than the call itself.
  [[nodiscard]] std::uint64_t scramble(std::uint64_t key) const {
    return splitmix64(scramble_a_ * key + scramble_b_);
  }

 private:
  HashKind kind_;
  common::Rng rng_;
  std::uint64_t scramble_a_;
  std::uint64_t scramble_b_;
};

}  // namespace nd::hash
