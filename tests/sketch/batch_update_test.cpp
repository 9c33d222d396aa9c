// update_batch must be BIT-identical to the same sequence of scalar
// update() calls — the prefetched index pass may not reorder any
// floating-point accumulation (sketch_ops.hpp contract). Exercised across
// ragged batch sizes (empty, 1, sub-block, non-multiple-of-block).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {
namespace {

std::vector<KeyDelta> random_ops(std::size_t n, std::uint64_t seed,
                                 int key_bits) {
  Pcg32 rng(seed);
  const std::uint64_t mask = key_bits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << key_bits) - 1;
  std::vector<KeyDelta> ops(n);
  for (auto& op : ops) {
    op.key = rng.next64() & mask;
    op.delta = rng.chance(0.5) ? 1.0 : -1.0 / (1.0 + rng.bounded(8));
  }
  return ops;
}

const std::size_t kBatchSizes[] = {0, 1, 5, 16, 17, 100, 1000, 4099};

TEST(BatchUpdateTest, ReversibleSketchBatchBitIdenticalToScalar) {
  const ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 6,
                                   .bucket_bits = 12, .seed = 9};
  for (const std::size_t n : kBatchSizes) {
    const auto ops = random_ops(n, 100 + n, cfg.key_bits);
    ReversibleSketch scalar(cfg), batched(cfg);
    for (const auto& op : ops) scalar.update(op.key, op.delta);
    batched.update_batch(ops);
    EXPECT_EQ(batched.update_count(), scalar.update_count());
    const auto a = scalar.counters();
    const auto b = batched.counters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "n=" << n << " counter " << i;
    }
    for (std::size_t h = 0; h < cfg.num_stages; ++h) {
      ASSERT_EQ(scalar.stage_sum(h), batched.stage_sum(h));
    }
  }
}

TEST(BatchUpdateTest, KarySketchBatchBitIdenticalToScalar) {
  const KarySketchConfig cfg{.num_stages = 6, .num_buckets = 1u << 14,
                             .seed = 4};
  for (const std::size_t n : kBatchSizes) {
    const auto ops = random_ops(n, 200 + n, 64);
    KarySketch scalar(cfg), batched(cfg);
    for (const auto& op : ops) scalar.update(op.key, op.delta);
    batched.update_batch(ops);
    EXPECT_EQ(batched.update_count(), scalar.update_count());
    const auto a = scalar.counters();
    const auto b = batched.counters();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "n=" << n << " counter " << i;
    }
    for (std::size_t h = 0; h < cfg.num_stages; ++h) {
      ASSERT_EQ(scalar.stage_sum(h), batched.stage_sum(h));
    }
  }
}

TEST(BatchUpdateTest, TwoDSketchBatchBitIdenticalToScalar) {
  const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1u << 10,
                           .y_buckets = 64, .seed = 8};
  for (const std::size_t n : kBatchSizes) {
    Pcg32 rng(300 + n);
    std::vector<KeyDelta2d> ops(n);
    for (auto& op : ops) {
      op.x_key = rng.next64();
      op.y_key = rng.bounded(1 << 16);
      op.delta = rng.chance(0.5) ? 1 : -2;
    }
    TwoDSketch scalar(cfg), batched(cfg);
    for (const auto& op : ops) scalar.update(op.x_key, op.y_key, op.delta);
    batched.update_batch(ops);
    EXPECT_EQ(batched.update_count(), scalar.update_count());
    const auto a = scalar.counters();
    const auto b = batched.counters();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "n=" << n << " cell " << i;
    }
  }
}

TEST(BatchUpdateTest, PowerOfTwoBucketFoldMatchesGenericFold) {
  // The construction-time power-of-two shift must give exactly the same
  // bucket as the generic multiply-high fold (it is its specialization).
  for (const std::size_t buckets :
       {std::size_t{2}, std::size_t{1} << 12, std::size_t{1} << 14,
        std::size_t{1} << 16, std::size_t{64}}) {
    const TabulationHash h(77, buckets);
    Pcg32 rng(5);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng.next64();
      ASSERT_EQ(h.bucket(key), h.bucket(key, buckets))
          << "buckets=" << buckets << " key=" << key;
    }
  }
  // Non-power-of-two counts fall back to the generic fold.
  const TabulationHash h(78, 1000);
  Pcg32 rng(6);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next64();
    ASSERT_EQ(h.bucket(key), h.bucket(key, 1000));
  }
}

}  // namespace
}  // namespace hifind
