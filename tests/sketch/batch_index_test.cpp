// Every update_batch must yield byte-identical (row,bucket) index
// sequences — and therefore bit-identical counters and stage sums — to the
// scalar update() per op, for all four sketch substrates. The shape matrix
// covers every update_batch route: the stage-transposed (StagedTabulation)
// index passes of all four sketches, at 4- and 8-stage entry widths and up
// to 2^16 buckets, and the reversible sketch's per-op fold for wider shapes.
// The reversible table is also checked index by index against the fold that
// defines the hash reverse inference inverts (bucket_of), and its estimate
// against the fold's. The narrow-key tests feed batches whose widest key
// sets the live-byte count the staged paths hash with. The per-prefix tests
// pin the SEQUENCE, not just the final state: after every single-op batch
// the counter arrays must agree, so a staged path that hit the right
// buckets in the wrong per-op grouping would be caught. The k-ary, 2D and
// compact cases run on both SIMD backends: the compact bit-run add
// dispatches.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/hash.hpp"
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
    op.delta = rng.chance(0.5)
                   ? 1
                   : -1 - static_cast<std::int32_t>(rng.bounded(8));
  }
  return ops;
}

std::vector<KeyDelta2d> random_ops_2d(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<KeyDelta2d> ops(n);
  for (auto& op : ops) {
    op.x_key = rng.next64();
    op.y_key = rng.bounded(1 << 16);
    op.delta = rng.chance(0.5) ? 1 : -2;
  }
  return ops;
}

/// Bitwise equality of two sketches' counter arrays, naming the first
/// differing index.
template <class Sketch>
::testing::AssertionResult BitIdentical(const Sketch& x, const Sketch& y) {
  const auto a = x.grid().counters();
  const auto b = y.grid().counters();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
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
    if (std::bit_cast<std::uint64_t>(a.grid().stage_sum(h)) !=
        std::bit_cast<std::uint64_t>(b.grid().stage_sum(h))) {
      return ::testing::AssertionFailure() << "stage sum " << h;
    }
  }
  return ::testing::AssertionSuccess();
}

const std::size_t kBatchSizes[] = {0, 1, 5, 16, 100, 255, 256, 257, 1000};
const bool kForceScalar[] = {false, true};

TEST(BatchIndexTest, ReversibleVectorizedMatchesLegacy) {
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
      ASSERT_TRUE(BitIdentical(batched, scalar))
          << "bits=" << key_bits << " n=" << n;
      ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
    }
  }
}

TEST(BatchIndexTest, ReversibleTableMatchesTheFoldOnEveryShape) {
  // rs48 and rs64 (the paper's shapes), an 8-stage shape (16-byte table
  // entries) and a 2^18 shape (beyond the table: the fold serves it).
  const ReversibleSketchConfig shapes[] = {
      {.key_bits = 48, .num_stages = 6, .bucket_bits = 12, .seed = 21},
      {.key_bits = 64, .num_stages = 6, .bucket_bits = 16, .seed = 22},
      {.key_bits = 32, .num_stages = 8, .bucket_bits = 12, .seed = 23},
      {.key_bits = 48, .num_stages = 6, .bucket_bits = 18, .seed = 24}};
  for (const ReversibleSketchConfig& cfg : shapes) {
    const std::size_t H = cfg.num_stages;
    const int q = cfg.num_words();
    const auto ops = random_ops(600, 700 + cfg.seed, cfg.key_bits);
    ReversibleSketch probe(cfg);
    if (cfg.bucket_bits <= 16) {
      // The table the sketch builds from its word hashes yields, for every
      // stage and key, the fold's bucket.
      const StagedTabulation table(&probe.word_hash(0, 0), H, q,
                                   cfg.bits_per_word());
      for (const auto& op : ops) {
        const std::uint64_t mangled = probe.mangler().mangle(op.key);
        table.for_each_bucket(mangled, q, [&](std::size_t h, std::size_t b) {
          ASSERT_EQ(b, probe.bucket_of(h, op.key))
              << "bits=" << cfg.bucket_bits << " stage " << h;
        });
      }
    } else {
      EXPECT_THROW(StagedTabulation(&probe.word_hash(0, 0), H, q,
                                    cfg.bits_per_word()),
                   std::invalid_argument);
    }
    ReversibleSketch batched(cfg), scalar(cfg);
    batched.update_batch(ops);
    for (const auto& op : ops) scalar.update(op.key, op.delta);
    ASSERT_TRUE(BitIdentical(batched, scalar))
        << "bits=" << cfg.bucket_bits;
    ASSERT_TRUE(SameStageSums(batched, scalar, H));
    // estimate() reads the same counters the fold names, on the recorded
    // grid and on a double grid of its shape.
    const CounterGrid wide = CounterGrid::widened(batched.grid(), 0.5);
    for (std::size_t i = 0; i < ops.size(); i += 7) {
      const std::uint64_t key = ops[i].key;
      const auto at = [&](std::size_t h) {
        return h * cfg.num_buckets() + batched.bucket_of(h, key);
      };
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.estimate(key)),
                std::bit_cast<std::uint64_t>(batched.grid().estimate(at)))
          << "bits=" << cfg.bucket_bits << " key " << key;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.estimate(key, wide)),
                std::bit_cast<std::uint64_t>(wide.estimate(at)))
          << "bits=" << cfg.bucket_bits << " key " << key;
    }
  }
}

TEST(BatchIndexTest, KaryVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // 4-stage (8-byte entries) and 8-stage (16-byte entries) tables, up to
    // 6 stages x 64Ki buckets (3 MiB), past any k-ary footprint in use.
    // Other bucket counts are rejected (KarySketchTest).
    const std::pair<std::size_t, std::uint32_t> shapes[] = {
        {4, 2u}, {6, 1u << 14}, {6, 1u << 16}, {8, 1u << 15}};
    for (const auto& [stages, buckets] : shapes) {
      const KarySketchConfig cfg{.num_stages = stages, .num_buckets = buckets,
                                 .seed = 4};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops(n, 200 + n, 64);
        KarySketch batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.key, op.delta);
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "scalar=" << scalar_backend << " stages=" << stages
            << " buckets=" << buckets << " n=" << n;
        ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
      }
    }
  }
}

TEST(BatchIndexTest, TwoDVectorizedMatchesLegacyIncludingNonPowerOfTwo) {
  DispatchGuard guard;
  for (const bool scalar_backend : kForceScalar) {
    simd::set_force_scalar(scalar_backend);
    // Other bucket counts are rejected (TwoDSketchTest).
    struct Shape {
      std::size_t stages;
      std::uint32_t xb, yb;
    };
    for (const Shape s : {Shape{5, 1u << 10, 64u}, Shape{3, 2u, 1u << 16},
                          Shape{8, 1u << 12, 32u}}) {
      const Sketch2dConfig cfg{.num_stages = s.stages, .x_buckets = s.xb,
                               .y_buckets = s.yb, .seed = 8};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = random_ops_2d(n, 300 + n);
        TwoDSketch batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.x_key, op.y_key, op.delta);
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "scalar=" << scalar_backend << " stages=" << s.stages
            << " x=" << s.xb << " y=" << s.yb << " n=" << n;
      }
    }
  }
}

/// Operands whose keys have 1..max_live live bytes, in random order, so a
/// batch's widest key sets the live-byte count for narrower ones.
std::vector<KeyDelta> narrow_ops(std::size_t n, std::uint64_t seed,
                                 int max_live) {
  Pcg32 rng(seed);
  std::vector<KeyDelta> ops(n);
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
    // Up to 2^16 buckets (8 stages take 16-byte table entries); wider
    // shapes are rejected (CompactInvertibleSketch tests).
    struct Shape {
      int key_bits;
      std::size_t stages;
      int bucket_bits;
    };
    for (const Shape s : {Shape{48, 3, 12}, Shape{64, 3, 12},
                          Shape{64, 8, 10}, Shape{16, 2, 16},
                          Shape{8, 1, 1}}) {
      const CompactInvertibleConfig cfg{.key_bits = s.key_bits,
                                        .num_stages = s.stages,
                                        .bucket_bits = s.bucket_bits,
                                        .seed = 6};
      for (const std::size_t n : kBatchSizes) {
        const auto ops = narrow_ops(n, 400 + n, 8);
        CompactInvertibleSketch batched(cfg), scalar(cfg);
        batched.update_batch(ops);
        for (const auto& op : ops) scalar.update(op.key, op.delta);
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "scalar=" << scalar_backend << " bits=" << s.key_bits
            << " stages=" << s.stages << " b=" << s.bucket_bits
            << " n=" << n;
        ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
      }
    }
  }
}

TEST(BatchIndexTest, NarrowKeyBatchesMatchPerOp) {
  // Batches of keys at most 1, 2, 4 or 6 bytes wide, mixed widths within
  // each batch: the staged paths hash every key with the batch's live-byte
  // count, and per-op update() with each key's own.
  for (const int max_live : {1, 2, 4, 6}) {
    const auto ops = narrow_ops(300, 500 + max_live, max_live);
    {
      const KarySketchConfig cfg{.num_stages = 6, .num_buckets = 1u << 14,
                                 .seed = 2};
      KarySketch batched(cfg), scalar(cfg);
      batched.update_batch(ops);
      for (const auto& op : ops) scalar.update(op.key, op.delta);
      ASSERT_TRUE(BitIdentical(batched, scalar))
          << "kary max_live=" << max_live;
      ASSERT_TRUE(SameStageSums(batched, scalar, cfg.num_stages));
    }
    {
      const CompactInvertibleConfig cfg{.key_bits = 48, .num_stages = 3,
                                        .bucket_bits = 12, .seed = 2};
      CompactInvertibleSketch batched(cfg), scalar(cfg);
      batched.update_batch(ops);
      for (const auto& op : ops) scalar.update(op.key, op.delta);
      ASSERT_TRUE(BitIdentical(batched, scalar))
          << "compact max_live=" << max_live;
    }
    {
      // x keys stay 8 bytes wide, y keys are the narrow ones (a Dport or a
      // DIP in the bank).
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1u << 12,
                               .y_buckets = 64, .seed = 2};
      auto ops2d = random_ops_2d(ops.size(), 600 + max_live);
      for (std::size_t i = 0; i < ops.size(); ++i) ops2d[i].y_key = ops[i].key;
      TwoDSketch batched(cfg), scalar(cfg);
      batched.update_batch(ops2d);
      for (const auto& op : ops2d) {
        scalar.update(op.x_key, op.y_key, op.delta);
      }
      ASSERT_TRUE(BitIdentical(batched, scalar))
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
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "rs op " << i;
      }
    }
    // A cache-resident shape and the widest the table serves.
    for (const std::uint32_t buckets : {1u << 10, 1u << 16}) {
      const KarySketchConfig cfg{.num_stages = 3, .num_buckets = buckets,
                                 .seed = 5};
      const auto ops = random_ops(96, 19, 64);
      KarySketch batched(cfg), scalar(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        batched.update_batch(std::span<const KeyDelta>(&ops[i], 1));
        scalar.update(ops[i].key, ops[i].delta);
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "kary buckets=" << buckets << " op " << i;
      }
    }
    {
      const Sketch2dConfig cfg{.num_stages = 5, .x_buckets = 1u << 10,
                               .y_buckets = 32, .seed = 8};
      const auto ops = random_ops_2d(96, 23);
      TwoDSketch batched(cfg), scalar(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        batched.update_batch(std::span<const KeyDelta2d>(&ops[i], 1));
        scalar.update(ops[i].x_key, ops[i].y_key, ops[i].delta);
        ASSERT_TRUE(BitIdentical(batched, scalar))
            << "2d op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hifind
