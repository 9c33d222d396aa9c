// Every update_batch must yield byte-identical (row,bucket) index
// sequences — and therefore bit-identical counters and stage sums — to the
// scalar update() per op, for all four sketch substrates, on both SIMD
// backends, including non-power-of-two bucket counts. The shape matrix
// covers every update_batch route: the reversible sketch's tab_hash64
// index pass; the stage-transposed (StagedTabulation) paths of the k-ary,
// 2D and compact sketches; and their per-stage fallbacks (bucket counts
// that are not a power of two or exceed 2^16, more than 8 stages). The
// narrow-key tests feed batches whose widest key sets the live-byte count
// the staged paths hash with. The per-prefix tests pin the SEQUENCE, not
// just the final state: after every single-op batch the counter arrays
// must agree, so a staged path that hit the right buckets in the wrong
// per-op grouping would be caught.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sketch/compact_invertible.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/simd_ops.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {
namespace {

/// Restores the dispatched SIMD backend when a test exits, pass or fail.
struct DispatchGuard {
  ~DispatchGuard() { simd::set_force_scalar(false); }
};

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

std::vector<KeyDelta2d32> random_ops_2d(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<KeyDelta2d32> ops(n);
  for (auto& op : ops) {
    op.x_key = rng.next64();
    op.y_key = rng.bounded(1 << 16);
    op.delta = rng.chance(0.5) ? 1 : -2;
  }
  return ops;
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}
bool same_bits(std::int32_t x, std::int32_t y) { return x == y; }

/// Bitwise equality of two counter arrays, naming the first differing index.
template <class C>
::testing::AssertionResult BitIdentical(std::span<const C> a,
                                        std::span<const C> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "counter " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

template <class Sketch>
::testing::AssertionResult SameStageSums(const Sketch& a, const Sketch& b,
                                         std::size_t stages) {
  for (std::size_t h = 0; h < stages; ++h) {
    if (std::bit_cast<std::uint64_t>(a.stage_sum(h)) !=
        std::bit_cast<std::uint64_t>(b.stage_sum(h))) {
      return ::testing::AssertionFailure() << "stage sum " << h;
    }
  }
  return ::testing::AssertionSuccess();
}

const std::size_t kBatchSizes[] = {0, 1, 5, 16, 100, 255, 256, 257, 1000};
const bool kForceScalar[] = {false, true};

TEST(BatchIndexTest, ReversibleVectorizedMatchesLegacy) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    for (const int key_bits : {48, 64}) {
      // bucket_bits must spread evenly across the q = key_bits/8 words.
      const ReversibleSketchConfig cfg{.key_bits = key_bits, .num_stages = 6,
                                       .bucket_bits = key_bits == 48 ? 12 : 8,
                                       .seed = 9};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops(n, 100 + n, cfg.key_bits);
        ReversibleSketch batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.key, op.delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "scalar=" << scalar_backend << " bits=" << key_bits
            << " n=" << n;
        ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
        ASSERT_EQ(batched.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, KaryVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // Power-of-two shapes up to 2^16 buckets stage; 1000, 4097 and 17
    // stages take the per-stage fold. The range runs to 6 stages x 64Ki
    // buckets (3 MiB), past any k-ary footprint in use.
    const std::pair<std::size_t, std::uint32_t> shapes[] = {
        {6, 1000u}, {6, 4097u}, {6, 1u << 14}, {6, 1u << 16}, {17, 1u << 15}};
    for (const auto& [stages, buckets] : shapes) {
      const KarySketchConfig cfg{.num_stages = stages, .num_buckets = buckets,
                                 .seed = 4};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops(n, 200 + n, 64);
        KarySketch batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.key, op.delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "scalar=" << scalar_backend << " stages=" << stages
            << " buckets=" << buckets << " n=" << n;
        ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
        ASSERT_EQ(batched.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, TwoDVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // Only 5 x 2^10 x 64 stages; the others take update() per op.
    struct Shape {
      std::size_t stages;
      std::uint32_t xb, yb;
    };
    for (const Shape s : {Shape{5, 1000u, 48u}, Shape{5, 1u << 10, 64u},
                          Shape{5, 4097u, 33u}, Shape{17, 1000u, 48u}}) {
      const Sketch2dConfig cfg{.num_stages = s.stages, .x_buckets = s.xb,
                               .y_buckets = s.yb, .seed = 8};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops_2d(n, 300 + n);
        TwoDSketch32 batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.x_key, op.y_key, op.delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "scalar=" << scalar_backend << " stages=" << s.stages
            << " x=" << s.xb << " y=" << s.yb << " n=" << n;
        ASSERT_EQ(batched.update_count(), scalar.update_count());
      }
    }
  }
}

/// Operands whose keys have 1..max_live live bytes, in random order, so a
/// batch's widest key sets the live-byte count for narrower ones.
template <class Delta>
std::vector<Delta> narrow_ops(std::size_t n, std::uint64_t seed,
                              int max_live) {
  Pcg32 rng(seed);
  std::vector<Delta> ops(n);
  for (auto& op : ops) {
    const int live = 1 + static_cast<int>(rng.bounded(max_live));
    op.key = live == 8 ? rng.next64()
                       : rng.next64() & ((std::uint64_t{1} << (8 * live)) - 1);
    op.delta = rng.chance(0.5) ? 1 : -3;
  }
  return ops;
}

TEST(BatchIndexTest, CompactVectorizedMatchesLegacyIncludingUnstaged) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // Up to 2^16 buckets stage (8 stages take 16-byte table entries);
    // 2^17 takes the per-stage fold.
    struct Shape {
      int key_bits;
      std::size_t stages;
      int bucket_bits;
    };
    for (const Shape s : {Shape{48, 3, 12}, Shape{64, 3, 12},
                          Shape{64, 8, 10}, Shape{16, 2, 16},
                          Shape{8, 1, 17}}) {
      const CompactInvertibleConfig cfg{.key_bits = s.key_bits,
                                        .num_stages = s.stages,
                                        .bucket_bits = s.bucket_bits,
                                        .seed = 6};
      for (const std::size_t n : kBatchSizes) {
        using Op = BasicKeyDelta<std::int32_t>;
        const auto ops = narrow_ops<Op>(n, 400 + n, 8);
        CompactInvertibleSketch32 batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.key, op.delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "scalar=" << scalar_backend << " bits=" << s.key_bits
            << " stages=" << s.stages << " b=" << s.bucket_bits
            << " n=" << n;
        ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
        ASSERT_EQ(batched.update_count(), scalar.update_count());
      }
    }
  }
}

TEST(BatchIndexTest, NarrowKeyBatchesMatchPerOp) {
  // Batches of keys at most 1, 2, 4 or 6 bytes wide, mixed widths within
  // each batch: the staged paths hash every key with the batch's live-byte
  // count, and per-op update() with each key's own.
  for (const int max_live : {1, 2, 4, 6}) {
    using Op = BasicKeyDelta<std::int32_t>;
    const auto ops = narrow_ops<Op>(300, 500 + max_live, max_live);
    {
      const KarySketchConfig cfg{.num_stages = 6, .num_buckets = 1u << 14,
                                 .seed = 2};
      KarySketch32 batched(cfg), scalar(cfg);
      batched.update_batch(ops);
      for (const auto& op : ops) scalar.update(op.key, op.delta);
      ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
          << "kary max_live=" << max_live;
      ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
    }
    {
      const CompactInvertibleConfig cfg{.key_bits = 48, .num_stages = 3,
                                        .bucket_bits = 12, .seed = 2};
      CompactInvertibleSketch32 batched(cfg), scalar(cfg);
      batched.update_batch(ops);
      for (const auto& op : ops) scalar.update(op.key, op.delta);
      ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
          << "compact max_live=" << max_live;
    }
    {
      // x keys stay 8 bytes wide, y keys are the narrow ones (a Dport or a
      // DIP in the bank).
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1u << 12,
                               .y_buckets = 64, .seed = 2};
      auto ops2d = random_ops_2d(ops.size(), 600 + max_live);
      for (std::size_t i = 0; i < ops.size(); ++i) ops2d[i].y_key = ops[i].key;
      TwoDSketch32 batched(cfg), scalar(cfg);
      batched.update_batch(ops2d);
      for (const auto& op : ops2d) {
        scalar.update(op.x_key, op.y_key, op.delta);
      }
      ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
          << "2d max_live=" << max_live;
    }
  }
}

TEST(BatchIndexTest, PerOpPrefixSequencesIdentical) {
  // Single-op batches, counters compared after EVERY op: equality of every
  // prefix means update_batch touches the same (row,bucket) set as update()
  // for the same op, i.e. the index SEQUENCES are identical, not merely the
  // final sums.
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    {
      const ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 4,
                                       .bucket_bits = 12, .seed = 3};
      const auto ops = random_ops(96, 17, cfg.key_bits);
      ReversibleSketch batched(cfg), scalar(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        batched.update_batch(std::span<const KeyDelta>(&ops[i], 1));
        scalar.update(ops[i].key, ops[i].delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "rs op " << i;
      }
    }
    // A cache-resident shape and a 3 x 2^17 (3 MiB) one.
    for (const std::uint32_t buckets : {1000u, 1u << 17}) {
      const KarySketchConfig cfg{.num_stages = 3, .num_buckets = buckets,
                                 .seed = 5};
      const auto ops = random_ops(96, 19, 64);
      KarySketch batched(cfg), scalar(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        batched.update_batch(std::span<const KeyDelta>(&ops[i], 1));
        scalar.update(ops[i].key, ops[i].delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "kary buckets=" << buckets << " op " << i;
      }
    }
    {
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1000,
                               .y_buckets = 48, .seed = 8};
      const auto ops = random_ops_2d(96, 23);
      TwoDSketch32 batched(cfg), scalar(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        batched.update_batch(std::span<const KeyDelta2d32>(&ops[i], 1));
        scalar.update(ops[i].x_key, ops[i].y_key, ops[i].delta);
        ASSERT_TRUE(BitIdentical(batched.counters(), scalar.counters()))
            << "2d op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hifind
