#include "sketch/kary_sketch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace hifind {
namespace {

KarySketchConfig small_config(std::uint64_t seed = 1) {
  return KarySketchConfig{.num_stages = 6, .num_buckets = 1u << 10,
                          .seed = seed};
}

TEST(KarySketchTest, RejectsDegenerateShapes) {
  EXPECT_THROW(KarySketch(KarySketchConfig{.num_stages = 0}),
               std::invalid_argument);
  EXPECT_THROW(KarySketch(KarySketchConfig{.num_buckets = 1}),
               std::invalid_argument);
  // The stage-transposed hash table needs a power-of-two K in [2, 2^16] and
  // at most 8 stages.
  EXPECT_THROW(KarySketch(KarySketchConfig{.num_buckets = 1000}),
               std::invalid_argument);
  EXPECT_THROW(KarySketch(KarySketchConfig{.num_buckets = 1u << 17}),
               std::invalid_argument);
  EXPECT_THROW(KarySketch(KarySketchConfig{.num_stages = 9}),
               std::invalid_argument);
  EXPECT_NO_THROW(
      KarySketch(KarySketchConfig{.num_stages = 8, .num_buckets = 1u << 16}));
}

TEST(KarySketchTest, EstimateRecoversSingleHeavyKey) {
  KarySketch s(small_config());
  s.update(12345, 1000.0);
  EXPECT_NEAR(s.estimate(12345), 1000.0, 1e-9);
}

TEST(KarySketchTest, EstimateNearZeroForAbsentKey) {
  KarySketch s(small_config());
  s.update(1, 500.0);
  EXPECT_NEAR(s.estimate(999999), 0.0, 500.0 * 0.01)
      << "mean correction should cancel background mass";
}

TEST(KarySketchTest, EstimateUnbiasedUnderBackgroundNoise) {
  KarySketch s(small_config(7));
  Pcg32 rng(3);
  // 20k small background keys plus one heavy hitter.
  for (int i = 0; i < 20000; ++i) {
    s.update(rng.next64(), 1.0);
  }
  s.update(0xfeedfaceULL, 5000.0);
  EXPECT_NEAR(s.estimate(0xfeedfaceULL), 5000.0, 250.0);
}

TEST(KarySketchTest, NegativeUpdatesCancelPositive) {
  KarySketch s(small_config());
  s.update(42, 100.0);
  s.update(42, -100.0);
  EXPECT_NEAR(s.estimate(42), 0.0, 1e-9);
}

TEST(KarySketchTest, UpdateCountsAndAccesses) {
  KarySketch s(small_config());
  EXPECT_EQ(s.accesses_per_update(), 6u);
  s.update(1, 1.0);
  s.update(2, 1.0);
  EXPECT_EQ(s.grid().stage_sum(0), 2.0);
  s.grid().clear();
  EXPECT_EQ(s.grid().stage_sum(0), 0.0);
  EXPECT_NEAR(s.estimate(1), 0.0, 1e-12);
}

TEST(KarySketchTest, StageSumTracksTotalMass) {
  KarySketch s(small_config());
  s.update(1, 10.0);
  s.update(2, -3.0);
  for (std::size_t h = 0; h < s.num_stages(); ++h) {
    EXPECT_NEAR(s.grid().stage_sum(h), 7.0, 1e-12);
  }
}

// COMBINE is the paper's aggregation primitive: recording traffic into two
// sketches and summing their grids must equal recording everything into one.
TEST(KarySketchTest, CombineEqualsSingleRecorder) {
  KarySketch a(small_config(5)), b(small_config(5)), whole(small_config(5));
  Pcg32 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next64() & 0xffff;
    const double v = rng.chance(0.5) ? 1.0 : -1.0;
    (rng.chance(0.5) ? a : b).update(key, v);
    whole.update(key, v);
  }
  KarySketch combined = a;
  combined.grid().accumulate(b.grid());
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_NEAR(combined.estimate(key), whole.estimate(key), 1e-9) << key;
  }
}

// The bank sum's per-grid step (SketchBank::merge_shards) reuses a dirty
// destination: it copies term 0 over it and accumulates the rest, which
// must match the in-place sum a += b bit for bit, stage sums included.
TEST(KarySketchTest, CombineIntoMatchesCombineAndReusesDestination) {
  KarySketch a(small_config(5)), b(small_config(5));
  Pcg32 rng(17);
  for (int i = 0; i < 3000; ++i) {
    (rng.chance(0.5) ? a : b).update(rng.next64() & 0xffff,
                                     rng.chance(0.5) ? 1.0 : -1.0);
  }
  KarySketch reference = a;
  reference.grid().accumulate(b.grid());

  KarySketch dest(small_config(5));
  dest.update(999, 123.0);  // stale state the copy must fully overwrite
  dest.grid() = a.grid();
  dest.grid().accumulate(b.grid());
  const auto rc = reference.grid().counters();
  const auto dc = dest.grid().counters();
  ASSERT_EQ(rc.size(), dc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) ASSERT_EQ(rc[i], dc[i]);
  for (std::size_t h = 0; h < dest.num_stages(); ++h) {
    EXPECT_DOUBLE_EQ(dest.grid().stage_sum(h), reference.grid().stage_sum(h));
  }
}

TEST(KarySketchTest, CombineRejectsShapeMismatch) {
  KarySketch a(small_config(1));
  KarySketch c(KarySketchConfig{.num_stages = 5, .num_buckets = 1u << 10,
                                .seed = 1});
  EXPECT_THROW(a.grid().accumulate(c.grid()), std::invalid_argument);
}

TEST(KarySketchTest, MemoryAccounting) {
  const KarySketch s(small_config());
  EXPECT_EQ(s.grid().memory_bytes(), 6u * 1024u * sizeof(std::int32_t));
}

// Property sweep: the estimator stays accurate across shapes.
struct ShapeParam {
  std::size_t stages;
  std::size_t buckets;
};
class KarySketchShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KarySketchShapes, HeavyHitterSurvivesNoise) {
  const auto [stages, buckets] = GetParam();
  KarySketch s(KarySketchConfig{stages, buckets, 99});
  Pcg32 rng(stages * 1000 + buckets);
  for (int i = 0; i < 8000; ++i) s.update(rng.next64(), 1.0);
  s.update(123456789, 2000.0);
  EXPECT_NEAR(s.estimate(123456789), 2000.0, 2000.0 * 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KarySketchShapes,
    ::testing::Values(ShapeParam{3, 1u << 10}, ShapeParam{5, 1u << 12},
                      ShapeParam{6, 1u << 14}, ShapeParam{7, 1u << 8}));

}  // namespace
}  // namespace hifind
