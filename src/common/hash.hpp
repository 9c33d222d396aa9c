// Hash families used by the sketch substrates.
//
// Every sketch computes its bucket indices from one stage-transposed table
// (StagedTabulation), filled from one of two hash families:
//  1. k-ary, 2D and compact sketches hash a full 64-bit key per stage with
//     seeded tabulation hashing over the key bytes — 3-independent, 8 table
//     lookups, and implementable in hardware as parallel SRAM reads,
//     matching the paper's "hardware implementable" requirement.
//  2. Reversible sketches hash each 8-bit key *word* independently to a small
//     bucket sub-index ("modular hashing", Schweller et al.). Those per-word
//     functions are random lookup tables (WordHash), which makes computing
//     preimage sets for reverse inference a table scan.
// Both are an XOR of per-byte rows, so one table load per live key byte
// yields every stage's index.
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
/// This is the iSCSI/RFC 3720 checksum that guards the HFB5 sketch-shipment
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
/// counts need not be powers of two. For buckets = 2^k the fold is the top k
/// bits of the hash — (h * 2^k) >> 64 == h >> (64 − k) — which is what
/// StagedTabulation packs.
class TabulationHash {
 public:
  /// Builds the 8x256 random table from the seed. Distinct seeds give
  /// (statistically) independent hash functions.
  explicit TabulationHash(std::uint64_t seed);

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

  /// The 8x256 byte table as a flat [byte][value] row-major array (row b
  /// holds the table XORed for key byte b, LSB first — matching hash()'s
  /// `(key >> 8*b) & 0xff` extraction), which StagedTabulation transposes.
  const std::uint64_t* table_data() const { return table_[0].data(); }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> table_;
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

/// One stage-transposed bucket-index table for a family of H hash stages
/// that share a bucket count 2^k. Each stage's bucket index is an XOR of
/// per-key-byte rows, so entry [byte][value] packs every stage's row value
/// as one 16-bit lane and the XOR of at most 8 entries yields all H indices:
///  * tabulation hashing: a stage's bucket is the top k bits of an XOR of 8
///    TabulationHash entries, and taking bits commutes with XOR, so the lane
///    holds an entry's top k bits (bit-identical to
///    TabulationHash(seed_h).bucket(key, 2^k));
///  * modular hashing: the reversible sketch concatenates per-word
///    sub-indices, which, pre-shifted into their disjoint bit ranges, are
///    XORed per-byte rows (bit-identical to
///    ReversibleSketch::index_of_mangled).
/// Key bytes above a key's top live byte are zero, so their entries fold
/// into a precomputed suffix constant and a 16-bit key costs 2 loads, a
/// 48-bit key 6.
///
/// The table serves 1 <= H <= kMaxStages stages and bucket counts a power
/// of two in [2, kMaxBuckets]; entries are 8 bytes for H <= 4 and 16 bytes
/// otherwise (at most 8 x 256 entries: 32 KiB).
class StagedTabulation {
 public:
  static constexpr std::size_t kMaxStages = 8;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  /// Throws std::invalid_argument naming `sketch` unless the table serves
  /// (num_stages, buckets): the shape check every k-ary, 2D and compact
  /// sketch runs at construction.
  static void check_shape(const char* sketch, std::size_t num_stages,
                          std::size_t buckets);

  /// Tabulation hashing: stage h is TabulationHash(mix64(seed) ^
  /// mix64(salt + h)) folded to `buckets`, the derivation every sketch family
  /// uses (the salt tells a sketch's families apart). Throws
  /// std::invalid_argument unless the table serves (num_stages, buckets).
  StagedTabulation(std::uint64_t seed, std::uint64_t salt,
                   std::size_t num_stages, std::size_t buckets);

  /// Modular hashing over keys of `num_words` bytes: stage h's index
  /// concatenates word_hashes[h * num_words + w].map(word w), bits_per_word
  /// bits each, word 0 being the most significant key byte. Throws
  /// std::invalid_argument unless the table serves (num_stages,
  /// 2^(num_words * bits_per_word)).
  StagedTabulation(const WordHash* word_hashes, std::size_t num_stages,
                   int num_words, int bits_per_word);

  std::size_t num_stages() const { return num_stages_; }

  /// Number of low bytes that can be nonzero in any key whose bits are a
  /// subset of `keys_or` (the OR of a batch's keys): 0..8.
  static int live_bytes(std::uint64_t keys_or) {
    return (std::bit_width(keys_or) + 7) / 8;
  }

  /// Calls f(h, index of `key` in stage h) for h = 0..H-1 in order. `live`
  /// must be >= live_bytes(key) and at most the family's key bytes (8, or
  /// num_words for modular hashing); it only bounds the table loads.
  template <class F>
  void for_each_bucket(std::uint64_t key, int live, F&& f) const {
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
    for (std::size_t h = 0; h < num_stages_; ++h) {
      f(h, static_cast<std::size_t>((acc[h >> 2] >> (16 * (h & 3))) &
                                    0xffff));
    }
  }

  /// Index of `key` in one stage (a cold-path read: all stages are
  /// computed); `key` must fit the family's key bytes.
  std::size_t bucket(std::size_t stage, std::uint64_t key) const {
    std::size_t out = 0;
    for_each_bucket(key, live_bytes(key), [&](std::size_t h, std::size_t b) {
      if (h == stage) out = b;
    });
    return out;
  }

 private:
  /// Sizes the table for `key_bytes` rows; entries start at zero.
  StagedTabulation(std::size_t num_stages, int key_bytes);

  /// ORs `value` (< 2^16) into stage h's lane of entry [byte][v].
  void set_lane(std::size_t h, int byte, int v, std::uint64_t value) {
    table_[(static_cast<std::size_t>(byte) * 256 + v) * words_ + h / 4] |=
        value << (16 * (h % 4));
  }

  /// Fills suffix_ from the filled table.
  void fold_suffixes();

  std::size_t num_stages_;
  std::size_t words_;  ///< u64 words per entry: 1 (H <= 4) or 2
  /// [byte][value][word], row-major; one row per key byte (8, or num_words
  /// for modular hashing).
  std::vector<std::uint64_t> table_;
  /// suffix_[L]: XOR of the value-0 entries of bytes L and up.
  std::array<std::array<std::uint64_t, 2>, 9> suffix_{};
};

}  // namespace hifind
