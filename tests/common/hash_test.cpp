#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <set>

namespace hifind {
namespace {

TEST(Mix64Test, IsDeterministicAndSpreadsBits) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Adjacent inputs should disagree in many output bits (avalanche).
  int differing = __builtin_popcountll(mix64(1000) ^ mix64(1001));
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(TabulationHashTest, DeterministicPerSeed) {
  TabulationHash a(7), b(7), c(8);
  EXPECT_EQ(a.hash(0x123456789abcdef0ULL), b.hash(0x123456789abcdef0ULL));
  EXPECT_NE(a.hash(0x123456789abcdef0ULL), c.hash(0x123456789abcdef0ULL));
}

TEST(TabulationHashTest, BucketAlwaysInRange) {
  TabulationHash h(3);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    EXPECT_LT(h.bucket(k * 0x9e3779b97f4a7c15ULL, 100), 100u);
  }
}

TEST(TabulationHashTest, BucketsRoughlyUniformOverSequentialKeys) {
  // Sequential keys are the adversarial input for weak hashes; tabulation
  // should still spread them evenly.
  TabulationHash h(11);
  constexpr std::size_t kBuckets = 64;
  constexpr std::size_t kKeys = 64000;
  std::array<std::size_t, kBuckets> load{};
  for (std::uint64_t k = 0; k < kKeys; ++k) ++load[h.bucket(k, kBuckets)];
  const double expected = static_cast<double>(kKeys) / kBuckets;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    EXPECT_GT(load[b], expected * 0.7) << "bucket " << b;
    EXPECT_LT(load[b], expected * 1.3) << "bucket " << b;
  }
}

TEST(WordHashTest, RejectsBadWidth) {
  EXPECT_THROW(WordHash(1, 0), std::invalid_argument);
  EXPECT_THROW(WordHash(1, 9), std::invalid_argument);
}

class WordHashWidth : public ::testing::TestWithParam<int> {};

TEST_P(WordHashWidth, OutputInRangeAndBalanced) {
  const int bits = GetParam();
  WordHash wh(99, bits);
  const std::size_t range = std::size_t{1} << bits;
  std::vector<std::size_t> load(range, 0);
  for (int w = 0; w < 256; ++w) {
    const std::uint8_t v = wh.map(static_cast<std::uint8_t>(w));
    ASSERT_LT(v, range);
    ++load[v];
  }
  // Balanced construction: loads differ by at most 1.
  const std::size_t lo = *std::min_element(load.begin(), load.end());
  const std::size_t hi = *std::max_element(load.begin(), load.end());
  EXPECT_LE(hi - lo, 1u);
}

TEST_P(WordHashWidth, PreimagesExactlyInvertMap) {
  const int bits = GetParam();
  WordHash wh(123, bits);
  const std::size_t range = std::size_t{1} << bits;
  std::size_t total = 0;
  for (std::size_t v = 0; v < range; ++v) {
    const auto& mask = wh.preimage_mask(static_cast<std::uint8_t>(v));
    for (int w = 0; w < 256; ++w) {
      if (mask[w / 64] >> (w % 64) & 1) {
        EXPECT_EQ(wh.map(static_cast<std::uint8_t>(w)), v) << w;
      }
    }
    for (const std::uint64_t word : mask) total += std::popcount(word);
  }
  EXPECT_EQ(total, 256u) << "preimages must partition the word space";
}

INSTANTIATE_TEST_SUITE_P(AllWidths, WordHashWidth,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(WordHashTest, PreimageMaskAgreesWithMap) {
  WordHash wh(321, 2);
  for (int v = 0; v < 4; ++v) {
    const auto& mask = wh.preimage_mask(static_cast<std::uint8_t>(v));
    std::set<int> from_mask;
    for (int i = 0; i < 4; ++i) {
      for (int b = 0; b < 64; ++b) {
        if (mask[i] >> b & 1) from_mask.insert(i * 64 + b);
      }
    }
    std::set<int> from_map;
    for (int w = 0; w < 256; ++w) {
      if (wh.map(static_cast<std::uint8_t>(w)) == v) from_map.insert(w);
    }
    EXPECT_EQ(from_mask, from_map) << "value " << v;
  }
}

TEST(WordHashTest, PreimageMasksPartitionTheWordSpace) {
  WordHash wh(555, 3);
  std::array<std::uint64_t, 4> all{};
  for (int v = 0; v < 8; ++v) {
    const auto& mask = wh.preimage_mask(static_cast<std::uint8_t>(v));
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(all[i] & mask[i], 0u) << "masks must be disjoint";
      all[i] |= mask[i];
    }
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(all[i], ~std::uint64_t{0}) << "masks must cover all bytes";
  }
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 / Castagnoli reference vectors.
  const char* ascii = "123456789";
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(ascii), 9)),
            0xe3069283u);
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  std::vector<std::uint8_t> inc(32);
  for (std::size_t i = 0; i < inc.size(); ++i) {
    inc[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(inc), 0x46dd794eu);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32cTest, ChainsAcrossCalls) {
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(mix64(i));
  }
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {0u, 1u, 7u, 50u, 99u, 100u}) {
    const std::span<const std::uint8_t> s(data);
    EXPECT_EQ(crc32c(s.subspan(split), crc32c(s.first(split))), whole);
  }
}

TEST(Crc32cTest, DetectsEverySingleByteFlip) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(mix64(i) >> 13);
  }
  const std::uint32_t clean = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      auto corrupt = data;
      corrupt[i] ^= flip;
      EXPECT_NE(crc32c(corrupt), clean) << "byte " << i;
    }
  }
}

TEST(WordHashTest, DifferentSeedsGiveDifferentTables) {
  WordHash a(1, 2), b(2, 2);
  int diffs = 0;
  for (int w = 0; w < 256; ++w) {
    diffs += a.map(static_cast<std::uint8_t>(w)) !=
                     b.map(static_cast<std::uint8_t>(w))
                 ? 1
                 : 0;
  }
  EXPECT_GT(diffs, 100);
}

}  // namespace
}  // namespace hifind
