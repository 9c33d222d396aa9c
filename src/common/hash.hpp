// Hash families used by the sketch substrates.
//
// Two distinct needs:
//  1. k-ary, 2D and compact sketches hash a full 64-bit key to a bucket
//     index per stage. We use seeded tabulation hashing over the key bytes —
//     3-independent, 8 table lookups, and implementable in hardware as
//     parallel SRAM reads, matching the paper's "hardware implementable"
//     requirement. StagedTabulation transposes a sketch's per-stage tables
//     so that all its stages' indices cost one load per live key byte.
//  2. Reversible sketches hash each 8-bit key *word* independently to a small
//     bucket sub-index ("modular hashing", Schweller et al.). Those per-word
//     functions are random lookup tables, which makes computing preimage sets
//     for reverse inference a table scan.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
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
  std::size_t bucket(std::uint64_t key) const {
    const std::uint64_t h = hash(key);
    if (shift_ < 64) return static_cast<std::size_t>(h >> shift_);
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * buckets_) >> 64);
  }

  /// The 8x256 byte table as a flat [byte][value] row-major array (row b
  /// holds the table XORed for key byte b, LSB first — matching hash()'s
  /// `(key >> 8*b) & 0xff` extraction), which StagedTabulation transposes.
  const std::uint64_t* table_data() const { return table_[0].data(); }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> table_;
  std::size_t buckets_{1};
  int shift_{64};  ///< 64 − log2(buckets) when power of two, else 64 (off)
};

/// One stage-transposed tabulation table for a family of TabulationHash
/// stages that share a bucket count. For buckets = 2^k, a stage's bucket()
/// is the top k bits of an XOR of 8 table entries, and taking bits commutes
/// with XOR, so entry [byte][value] packs every stage's top k bits as one
/// 16-bit lane: the XOR of at most 8 entries yields all H indices, equal to
/// stage(h).bucket(key) bit for bit. Key bytes above a key's top live byte
/// are zero, so their entries fold into a precomputed suffix constant and a
/// 16-bit key costs 2 loads, a 48-bit key 6.
///
/// The table exists when staged(): buckets a power of two in [2, 2^16] and
/// 1 <= H <= kMaxStages (every default sketch shape). Entries are 8 bytes
/// for H <= 4 and 16 bytes otherwise (8 x 256 entries: at most 32 KiB).
/// Other shapes keep only the per-stage hashes and fold per stage.
class StagedTabulation {
 public:
  static constexpr std::size_t kMaxStages = 8;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  /// Builds stage h as TabulationHash(mix64(seed) ^ mix64(salt + h),
  /// buckets), the derivation every sketch family uses (the salt tells a
  /// sketch's families apart), and the transposed table when it applies.
  StagedTabulation(std::uint64_t seed, std::uint64_t salt,
                   std::size_t num_stages, std::size_t buckets);

  /// True when the transposed table serves for_each_bucket().
  bool staged() const { return words_ != 0; }

  std::size_t num_stages() const { return stages_.size(); }
  const TabulationHash& stage(std::size_t h) const { return stages_[h]; }

  /// Number of low bytes that can be nonzero in any key whose bits are a
  /// subset of `keys_or` (the OR of a batch's keys): 0..8.
  static int live_bytes(std::uint64_t keys_or) {
    return (std::bit_width(keys_or) + 7) / 8;
  }

  /// Calls f(h, stage(h).bucket(key)) for h = 0..H-1 in order. `live` must
  /// be >= live_bytes(key); it only bounds the table loads.
  template <class F>
  void for_each_bucket(std::uint64_t key, int live, F&& f) const {
    if (words_ == 0) {
      for (std::size_t h = 0; h < stages_.size(); ++h) {
        f(h, stages_[h].bucket(key));
      }
      return;
    }
    std::uint64_t acc[2] = {suffix_[live][0], suffix_[live][1]};
    const std::uint64_t* row = table_.data();
    if (words_ == 1) {
      for (int b = 0; b < live; ++b, row += 256) {
        acc[0] ^= row[(key >> (8 * b)) & 0xff];
      }
    } else {
      for (int b = 0; b < live; ++b, row += 512) {
        const std::uint64_t* e = row + 2 * ((key >> (8 * b)) & 0xff);
        acc[0] ^= e[0];
        acc[1] ^= e[1];
      }
    }
    for (std::size_t h = 0; h < stages_.size(); ++h) {
      f(h, static_cast<std::size_t>((acc[h >> 2] >> (16 * (h & 3))) &
                                    0xffff));
    }
  }

 private:
  std::vector<TabulationHash> stages_;
  int words_{0};  ///< u64 words per entry: 1 (H <= 4), 2, or 0 (not staged)
  std::vector<std::uint64_t> table_;  ///< [byte][value][word], row-major
  /// suffix_[L]: XOR of the value-0 entries of bytes L..7.
  std::array<std::array<std::uint64_t, 2>, 9> suffix_{};
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
