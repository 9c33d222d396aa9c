// Hash families used by the sketch substrates.
//
// Two distinct needs:
//  1. k-ary / verification sketches hash a full 64-bit key to a bucket index.
//     We use seeded tabulation hashing over the key bytes — 3-independent,
//     fast (8 table lookups), and implementable in hardware as parallel SRAM
//     reads, matching the paper's "hardware implementable" requirement.
//  2. Reversible sketches hash each 8-bit key *word* independently to a small
//     bucket sub-index ("modular hashing", Schweller et al.). Those per-word
//     functions are random lookup tables, which makes computing preimage sets
//     for reverse inference a table scan.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace hifind {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) over a byte span.
/// This is the iSCSI/RFC 3720 checksum that guards the HFB4 sketch-shipment
/// frames: it detects every single- and double-bit error and all burst errors
/// up to 32 bits, which covers the corruption modes a router->central link
/// realistically produces. `crc` chains across calls (pass the previous
/// return value to continue a running checksum).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t crc = 0);

/// SplitMix64 finalizer: a fast, well-distributed 64 -> 64 bit mixer.
/// Used for seeding and for cheap non-reversible key scrambling.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded tabulation hash over the 8 bytes of a 64-bit key. The output is
/// folded to a caller-chosen bucket count with a multiply-shift, so bucket
/// counts need not be powers of two.
///
/// Constructing with a fixed bucket count selects a fold at construction:
/// power-of-two counts (every sketch config in the bank) take a shift fast
/// path instead of the 128-bit multiply-high. The shift IS the multiply-high
/// fold specialized to buckets = 2^k — (h * 2^k) >> 64 == h >> (64 − k) — so
/// the bucket mapping is bit-identical either way.
class TabulationHash {
 public:
  /// Builds the 8x256 random table from the seed. Distinct seeds give
  /// (statistically) independent hash functions.
  explicit TabulationHash(std::uint64_t seed);

  /// As above, additionally fixing the bucket count served by the one-argument
  /// bucket() overload. `buckets` must be >= 1.
  TabulationHash(std::uint64_t seed, std::size_t buckets);

  /// Full 64-bit hash of the key.
  std::uint64_t hash(std::uint64_t key) const {
    std::uint64_t h = 0;
    for (int b = 0; b < 8; ++b) {
      h ^= table_[b][(key >> (8 * b)) & 0xff];
    }
    return h;
  }

  /// Hash folded to [0, buckets).
  std::size_t bucket(std::uint64_t key, std::size_t buckets) const {
    // Multiply-high fold: unbiased for bucket counts << 2^64.
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(hash(key)) * buckets) >> 64);
  }

  /// Hash folded to the construction-time bucket count, dispatching to the
  /// shift fast path when that count is a power of two.
  std::size_t bucket(std::uint64_t key) const { return fold(hash(key)); }

  /// Folds an already-computed hash() value to the construction-time bucket
  /// count — exactly the fold bucket(key) applies. Batched index
  /// precomputation hashes a whole block of keys through simd::tab_hash64
  /// over table_data(), then folds each output here; the split is
  /// bit-identical to per-key bucket() calls by construction.
  std::size_t fold(std::uint64_t h) const {
    if (shift_ < 64) return static_cast<std::size_t>(h >> shift_);
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * buckets_) >> 64);
  }

  /// The 8x256 byte table as a flat [byte][value] row-major array, laid out
  /// for simd::tab_hash64 (row b holds the table XORed for key byte b, LSB
  /// first — matching hash()'s `(key >> 8*b) & 0xff` extraction).
  const std::uint64_t* table_data() const { return table_[0].data(); }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> table_;
  std::size_t buckets_{1};
  int shift_{64};  ///< 64 − log2(buckets) when power of two, else 64 (off)
};

/// A random function from 8-bit words to [0, 2^out_bits), represented as a
/// lookup table. Building block of modular hashing in reversible sketches.
/// Exposes preimage masks for reverse inference.
class WordHash {
 public:
  /// @param out_bits  width of the output sub-index, in [1, 8].
  WordHash(std::uint64_t seed, int out_bits);

  /// Maps a word to its sub-index.
  std::uint8_t map(std::uint8_t word) const { return table_[word]; }

  /// The preimage set of `value` — all words w with map(w) == value — as a
  /// 256-bit bitmask (bit w of word w/64 set iff map(w) == value). Lets
  /// reverse inference combine per-stage byte constraints with a handful of
  /// bitwise ops instead of per-byte loops.
  const std::array<std::uint64_t, 4>& preimage_mask(std::uint8_t value) const {
    return preimage_masks_[value];
  }

 private:
  std::array<std::uint8_t, 256> table_;
  std::vector<std::array<std::uint64_t, 4>> preimage_masks_;
};

}  // namespace hifind
