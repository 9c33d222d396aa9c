// StagedTabulation must yield, for every stage, exactly the bucket the
// stage's own TabulationHash::bucket() gives: on every default bank shape,
// on random power-of-two shapes, for any live-byte bound at or above the
// key's, and for a batch whose widest key sets that bound. Shapes the
// transposed table cannot hold (bucket count not a power of two, above
// 2^16, or more than kMaxStages stages) must fall back to the per-stage
// fold, with the same answers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind {
namespace {

StagedTabulation make_family(std::size_t stages, std::size_t buckets,
                             std::uint64_t seed) {
  return StagedTabulation(seed, 0x5a17, stages, buckets);
}

/// Keys that exercise the suffix constant: 0, all-ones, keys with exactly
/// 2/4/6/8 live bytes (top live byte nonzero), and random keys.
std::vector<std::uint64_t> probe_keys(std::uint64_t seed) {
  std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}, 1, 0xff, 0x100};
  Pcg32 rng(seed);
  for (const int live : {2, 4, 6, 8}) {
    for (int i = 0; i < 16; ++i) {
      std::uint64_t k = rng.next64();
      if (live < 8) k &= (std::uint64_t{1} << (8 * live)) - 1;
      k |= std::uint64_t{1} << (8 * live - 1);  // top live byte nonzero
      keys.push_back(k);
    }
  }
  for (int i = 0; i < 64; ++i) keys.push_back(rng.next64());
  return keys;
}

/// Every stage's staged bucket equals stage(h).bucket(key), at the key's own
/// live-byte count and at every wider bound.
::testing::AssertionResult MatchesPerStage(const StagedTabulation& family,
                                           std::uint64_t key) {
  const int own = StagedTabulation::live_bytes(key);
  for (int live = own; live <= 8; ++live) {
    std::vector<std::size_t> got(family.num_stages(), ~std::size_t{0});
    family.for_each_bucket(key, live,
                           [&](std::size_t h, std::size_t b) { got[h] = b; });
    for (std::size_t h = 0; h < family.num_stages(); ++h) {
      const std::size_t want = family.stage(h).bucket(key);
      if (got[h] != want) {
        return ::testing::AssertionFailure()
               << "key " << std::hex << key << std::dec << " live " << live
               << " stage " << h << ": " << got[h] << " vs " << want;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StagedTabulation, LiveBytesCountsUpToTheTopNonzeroByte) {
  EXPECT_EQ(StagedTabulation::live_bytes(0), 0);
  EXPECT_EQ(StagedTabulation::live_bytes(1), 1);
  EXPECT_EQ(StagedTabulation::live_bytes(0xff), 1);
  EXPECT_EQ(StagedTabulation::live_bytes(0x100), 2);
  EXPECT_EQ(StagedTabulation::live_bytes(0xffff), 2);
  EXPECT_EQ(StagedTabulation::live_bytes(0xffffffffULL), 4);
  EXPECT_EQ(StagedTabulation::live_bytes(std::uint64_t{1} << 47), 6);
  EXPECT_EQ(StagedTabulation::live_bytes(~std::uint64_t{0}), 8);
}

TEST(StagedTabulation, EveryDefaultBankShapeIsStagedAndExact) {
  const SketchBankConfig bank;
  struct Shape {
    std::string name;
    std::size_t stages, buckets;
  };
  // The SYNACK sketch takes the verification shape.
  const Shape shapes[] = {
      {"verification", bank.verification.num_stages,
       bank.verification.num_buckets},
      {"original", bank.original.num_stages, bank.original.num_buckets},
      {"twod.x", bank.twod.num_stages, bank.twod.x_buckets},
      {"twod.y", bank.twod.num_stages, bank.twod.y_buckets},
      {"ci48", bank.ci48.num_stages, bank.ci48.num_buckets()},
      {"ci64", bank.ci64.num_stages, bank.ci64.num_buckets()},
  };
  for (const Shape& s : shapes) {
    const StagedTabulation family = make_family(s.stages, s.buckets, 7);
    ASSERT_TRUE(family.staged()) << s.name;
    for (const std::uint64_t key : probe_keys(11)) {
      ASSERT_TRUE(MatchesPerStage(family, key)) << s.name;
    }
  }
}

TEST(StagedTabulation, RandomPowerOfTwoShapesAreExact) {
  Pcg32 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t stages = 1 + rng.bounded(8);
    const int bits = 1 + static_cast<int>(rng.bounded(16));
    const StagedTabulation family =
        make_family(stages, std::size_t{1} << bits, rng.next64());
    ASSERT_TRUE(family.staged()) << stages << " x 2^" << bits;
    for (const std::uint64_t key : probe_keys(trial)) {
      ASSERT_TRUE(MatchesPerStage(family, key))
          << stages << " x 2^" << bits;
    }
  }
}

TEST(StagedTabulation, WidestKeyOfABatchSetsTheLiveBytes) {
  // A batch of 1-, 2-, 4- and 6-byte keys hashed at the live-byte count of
  // the batch's OR, as update_batch does: every key still hits its own
  // per-stage buckets.
  const StagedTabulation family = make_family(6, 1u << 14, 3);
  Pcg32 rng(5);
  for (const int widest : {1, 2, 4, 6}) {
    std::vector<std::uint64_t> batch;
    for (int live = 0; live <= widest; ++live) {
      const std::uint64_t mask = (std::uint64_t{1} << (8 * live)) - 1;
      for (int i = 0; i < 8; ++i) batch.push_back(rng.next64() & mask);
    }
    std::uint64_t keys_or = 0;
    for (const std::uint64_t k : batch) keys_or |= k;
    const int live = StagedTabulation::live_bytes(keys_or);
    ASSERT_LE(live, widest);
    for (const std::uint64_t key : batch) {
      family.for_each_bucket(key, live, [&](std::size_t h, std::size_t b) {
        ASSERT_EQ(b, family.stage(h).bucket(key))
            << "widest " << widest << " key " << key << " stage " << h;
      });
    }
  }
}

TEST(StagedTabulation, UnstageableShapesFallBackToThePerStageFold) {
  struct Shape {
    std::size_t stages, buckets;
  };
  for (const Shape s : {Shape{6, 1000}, Shape{5, 4097}, Shape{3, 1u << 17},
                        Shape{9, 1u << 10}, Shape{17, 1u << 15},
                        Shape{2, 1}}) {
    const StagedTabulation family = make_family(s.stages, s.buckets, 13);
    EXPECT_FALSE(family.staged()) << s.stages << " x " << s.buckets;
    for (const std::uint64_t key : probe_keys(17)) {
      ASSERT_TRUE(MatchesPerStage(family, key))
          << s.stages << " x " << s.buckets;
    }
  }
  // The edges that still stage: 2^16 buckets, 8 stages, 2 buckets.
  EXPECT_TRUE(make_family(8, 1u << 16, 1).staged());
  EXPECT_TRUE(make_family(1, 2, 1).staged());
  EXPECT_TRUE(make_family(4, 1u << 16, 1).staged());
}

}  // namespace
}  // namespace hifind
