#include "common/hash.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hifind {
namespace {

/// Slicing-by-4 tables for CRC-32C, built once at first use. Table 0 is the
/// classic byte-at-a-time table; tables 1-3 fold 4 input bytes per step.
struct Crc32cTables {
  std::uint32_t t[4][256];

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ kPoly : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
  static const Crc32cTables tables;
  const auto& t = tables.t;
  std::uint32_t c = ~crc;
  std::size_t i = 0;
#if defined(__SSE4_2__)
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, data.data() + i, 8);
    c = static_cast<std::uint32_t>(
        __builtin_ia32_crc32di(c, chunk));
  }
#else
  for (; i + 4 <= data.size(); i += 4) {
    c ^= static_cast<std::uint32_t>(data[i]) |
         (static_cast<std::uint32_t>(data[i + 1]) << 8) |
         (static_cast<std::uint32_t>(data[i + 2]) << 16) |
         (static_cast<std::uint32_t>(data[i + 3]) << 24);
    c = t[3][c & 0xff] ^ t[2][(c >> 8) & 0xff] ^ t[1][(c >> 16) & 0xff] ^
        t[0][c >> 24];
  }
#endif
  for (; i < data.size(); ++i) {
    c = (c >> 8) ^ t[0][(c ^ data[i]) & 0xff];
  }
  return ~c;
}

TabulationHash::TabulationHash(std::uint64_t seed) {
  Pcg32 rng(mix64(seed), mix64(seed ^ 0x7462bea6d89c4a1dULL));
  for (auto& row : table_) {
    for (auto& cell : row) {
      cell = rng.next64();
    }
  }
}

void StagedTabulation::check_shape(const char* sketch,
                                   std::size_t num_stages,
                                   std::size_t buckets) {
  if (num_stages < 1 || num_stages > kMaxStages || buckets < 2 ||
      buckets > kMaxBuckets || !std::has_single_bit(buckets)) {
    throw std::invalid_argument(
        std::string(sketch) +
        " needs 1 to 8 stages and a power-of-two bucket count in [2, 2^16]");
  }
}

StagedTabulation::StagedTabulation(std::size_t num_stages, int key_bytes)
    : num_stages_(num_stages),
      words_(num_stages <= 4 ? 1 : 2),
      table_(static_cast<std::size_t>(key_bytes) * 256 * words_, 0) {}

void StagedTabulation::fold_suffixes() {
  const std::size_t row = 256 * words_;
  for (std::size_t live = table_.size() / row; live-- > 0;) {
    for (std::size_t w = 0; w < words_; ++w) {
      suffix_[live][w] = suffix_[live + 1][w] ^ table_[live * row + w];
    }
  }
}

StagedTabulation::StagedTabulation(std::uint64_t seed, std::uint64_t salt,
                                   std::size_t num_stages,
                                   std::size_t buckets)
    : StagedTabulation(num_stages, 8) {
  check_shape("StagedTabulation", num_stages, buckets);
  const int shift = 64 - std::countr_zero(buckets);
  for (std::size_t h = 0; h < num_stages; ++h) {
    const TabulationHash stage(mix64(seed) ^ mix64(salt + h));
    const std::uint64_t* t = stage.table_data();
    for (int byte = 0; byte < 8; ++byte) {
      for (int v = 0; v < 256; ++v) {
        set_lane(h, byte, v, t[byte * 256 + v] >> shift);
      }
    }
  }
  fold_suffixes();
}

StagedTabulation::StagedTabulation(const WordHash* word_hashes,
                                   std::size_t num_stages, int num_words,
                                   int bits_per_word)
    : StagedTabulation(num_stages, num_words) {
  const int bits = num_words * bits_per_word;
  check_shape("StagedTabulation", num_stages,
              bits >= 1 && bits <= 16 ? std::size_t{1} << bits : 0);
  // Byte p of the key (LSB first) is word w = q-1-p, whose sub-index
  // occupies bits [nb*p, nb*(p+1)) of the index; the ranges are disjoint,
  // so XOR over bytes equals the shift-or concatenation.
  const int q = num_words;
  for (std::size_t h = 0; h < num_stages; ++h) {
    for (int p = 0; p < q; ++p) {
      const WordHash& wh = word_hashes[h * static_cast<std::size_t>(q) +
                                       static_cast<std::size_t>(q - 1 - p)];
      for (int v = 0; v < 256; ++v) {
        set_lane(h, p, v,
                 std::uint64_t{wh.map(static_cast<std::uint8_t>(v))}
                     << (bits_per_word * p));
      }
    }
  }
  fold_suffixes();
}

WordHash::WordHash(std::uint64_t seed, int out_bits) {
  if (out_bits < 1 || out_bits > 8) {
    throw std::invalid_argument("WordHash out_bits must be in [1,8]");
  }
  const auto range = static_cast<std::uint32_t>(1u << out_bits);
  Pcg32 rng(mix64(seed ^ 0x51ab3e0c92dd7f64ULL), mix64(seed));
  // Balanced construction: fill with an equal share of each output value and
  // shuffle. A perfectly balanced word hash keeps bucket loads even when key
  // words are uniform post-mangling, which tightens inference candidate sets.
  for (std::size_t w = 0; w < table_.size(); ++w) {
    table_[w] = static_cast<std::uint8_t>(w % range);
  }
  for (std::size_t w = table_.size() - 1; w > 0; --w) {
    const std::uint32_t j = rng.bounded(static_cast<std::uint32_t>(w + 1));
    std::swap(table_[w], table_[j]);
  }
  preimage_masks_.assign(range, {});
  for (std::size_t w = 0; w < table_.size(); ++w) {
    preimage_masks_[table_[w]][w / 64] |= std::uint64_t{1} << (w % 64);
  }
}

}  // namespace hifind
