#include "common/hash.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

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

TabulationHash::TabulationHash(std::uint64_t seed, std::size_t buckets)
    : TabulationHash(seed) {
  if (buckets == 0) {
    throw std::invalid_argument("TabulationHash needs >=1 bucket");
  }
  buckets_ = buckets;
  if (buckets >= 2 && (buckets & (buckets - 1)) == 0) {
    shift_ = 64 - std::countr_zero(buckets);
  }
}

StagedTabulation::StagedTabulation(std::uint64_t seed, std::uint64_t salt,
                                   std::size_t num_stages,
                                   std::size_t buckets) {
  stages_.reserve(num_stages);
  for (std::size_t h = 0; h < num_stages; ++h) {
    stages_.emplace_back(mix64(seed) ^ mix64(salt + h), buckets);
  }
  const std::size_t H = num_stages;
  if (H == 0 || H > kMaxStages || buckets < 2 || buckets > kMaxBuckets ||
      !std::has_single_bit(buckets)) {
    return;
  }
  const int shift = 64 - std::countr_zero(buckets);
  words_ = H <= 4 ? 1 : 2;
  const auto W = static_cast<std::size_t>(words_);
  table_.assign(8 * 256 * W, 0);
  for (std::size_t h = 0; h < H; ++h) {
    const std::uint64_t* t = stages_[h].table_data();
    for (std::size_t i = 0; i < 8 * 256; ++i) {
      table_[i * W + h / 4] |= (t[i] >> shift) << (16 * (h % 4));
    }
  }
  for (std::size_t live = 8; live-- > 0;) {
    for (std::size_t w = 0; w < W; ++w) {
      suffix_[live][w] = suffix_[live + 1][w] ^ table_[live * 256 * W + w];
    }
  }
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
