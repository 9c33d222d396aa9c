// The linear contract every sketch type shares, checked once per type on its
// grid(): the k-ary, reversible, compact invertible and 2D sketches, and the
// pluggable InvertibleSketch on both backends. COMBINE, forecasting, the
// shard merge and the wire format all rely on it. The read side is checked
// per 1D type too: a sketch reads a double grid of its shape (a forecast
// error, the lifetime history) through the same code as its own counters.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_backend.hpp"

namespace hifind {
namespace {

// Each case builds a small sketch of its type from (seed, wide): equal
// arguments give summable sketches, a different `wide` another shape.
struct KaryCase {
  using Sketch = KarySketch;
  static Sketch make(std::uint64_t seed, bool wide = false) {
    return Sketch(KarySketchConfig{
        .num_stages = 4, .num_buckets = wide ? 512u : 256u, .seed = seed});
  }
  static void record(Sketch& s, std::uint64_t key, std::int32_t delta) {
    s.update(key, delta);
  }
};

struct ReversibleCase {
  using Sketch = ReversibleSketch;
  static Sketch make(std::uint64_t seed, bool wide = false) {
    return Sketch(ReversibleSketchConfig{.key_bits = 32,
                                         .num_stages = 5,
                                         .bucket_bits = wide ? 12 : 8,
                                         .seed = seed});
  }
  static void record(Sketch& s, std::uint64_t key, std::int32_t delta) {
    s.update(key & 0xffffffffu, delta);
  }
};

struct CompactCase {
  using Sketch = CompactInvertibleSketch;
  static Sketch make(std::uint64_t seed, bool wide = false) {
    return Sketch(CompactInvertibleConfig{.key_bits = 40,
                                          .num_stages = 3,
                                          .bucket_bits = wide ? 8 : 7,
                                          .seed = seed});
  }
  static void record(Sketch& s, std::uint64_t key, std::int32_t delta) {
    s.update(key, delta);
  }
};

struct TwoDCase {
  using Sketch = TwoDSketch;
  static Sketch make(std::uint64_t seed, bool wide = false) {
    return Sketch(Sketch2dConfig{.num_stages = 3,
                                 .x_buckets = wide ? 128u : 64u,
                                 .y_buckets = 16,
                                 .seed = seed});
  }
  static void record(Sketch& s, std::uint64_t key, std::int32_t delta) {
    s.update(key >> 8, key & 0xff, delta);
  }
};

template <SketchBackendKind kKind>
struct InvertibleCase {
  using Sketch = InvertibleSketch;
  static Sketch make(std::uint64_t seed, bool wide = false) {
    InvertibleSketchConfig cfg;
    cfg.kind = kKind;
    cfg.reversible = ReversibleCase::make(seed, wide).config();
    cfg.compact = CompactCase::make(seed, wide).config();
    return Sketch(cfg);
  }
  static void record(Sketch& s, std::uint64_t key, std::int32_t delta) {
    s.update(key & 0xffffffffu, delta);
  }
};

template <class Case>
class SketchContractTest : public ::testing::Test {
 protected:
  using Sketch = typename Case::Sketch;

  /// Records `n` seeded updates of stream `stream` into `s`.
  static void record_stream(Sketch& s, std::uint64_t stream, int n = 400) {
    Pcg32 rng(stream);
    for (int i = 0; i < n; ++i) {
      const std::int32_t delta =
          rng.bounded(3) == 0 ? -1
                              : 1 + static_cast<std::int32_t>(rng.bounded(4));
      Case::record(s, rng.bounded(2000) * 0x9e3779b1ULL, delta);
    }
  }

  /// A sketch of the base shape holding stream `stream`.
  static Sketch recorded(std::uint64_t stream) {
    Sketch s = Case::make(7);
    record_stream(s, stream);
    return s;
  }

  static void expect_bit_identical(const Sketch& a, const Sketch& b) {
    const auto ca = a.grid().counters();
    const auto cb = b.grid().counters();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i], cb[i]) << "counter " << i;
    }
    const auto& ga = a.grid();
    const auto& gb = b.grid();
    ASSERT_EQ(ga.rows(), gb.rows());
    for (std::size_t h = 0; h < ga.rows(); ++h) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ga.stage_sum(h)),
                std::bit_cast<std::uint64_t>(gb.stage_sum(h)))
          << "stage " << h;
    }
  }
};

using Cases =
    ::testing::Types<KaryCase, ReversibleCase, CompactCase, TwoDCase,
                     InvertibleCase<SketchBackendKind::kReversible>,
                     InvertibleCase<SketchBackendKind::kCompact>>;
TYPED_TEST_SUITE(SketchContractTest, Cases);

TYPED_TEST(SketchContractTest, EmptyAndMismatchedTermsThrow) {
  // The grid sum checks shape; an empty term list and a seed mismatch are
  // the bank sum's to reject (ShardMergeTest.RejectsAliasedAndMismatchedInputs,
  // SketchBankTest.CombineRejectsDifferentSeeds).
  typename TypeParam::Sketch dst = TypeParam::make(7);
  const typename TypeParam::Sketch same = TypeParam::make(7);
  const typename TypeParam::Sketch other_shape =
      TypeParam::make(7, /*wide=*/true);
  EXPECT_THROW(dst.grid().accumulate(other_shape.grid()),
               std::invalid_argument);
  EXPECT_NO_THROW(dst.grid().accumulate(same.grid()));
}

TYPED_TEST(SketchContractTest, LoadCountersChecksSizeAndRecomputesStageSums) {
  using Counter = std::int32_t;
  const typename TypeParam::Sketch src = this->recorded(3);
  typename TypeParam::Sketch dst = TypeParam::make(7);
  const auto counters = src.grid().counters();
  const std::vector<Counter> flat(counters.begin(), counters.end());
  dst.grid().load_counters(flat);
  this->expect_bit_identical(dst, src);

  std::vector<Counter> short_by_one(flat.begin(), flat.end() - 1);
  EXPECT_THROW(dst.grid().load_counters(short_by_one), std::invalid_argument);
  std::vector<Counter> long_by_one = flat;
  long_by_one.push_back(Counter{0});
  EXPECT_THROW(dst.grid().load_counters(long_by_one), std::invalid_argument);
}

TYPED_TEST(SketchContractTest, ClearZeroesCountersAndUpdateCount) {
  typename TypeParam::Sketch s = this->recorded(4);
  s.grid().clear();
  for (const std::int32_t c : s.grid().counters()) ASSERT_EQ(c, 0);
  for (std::size_t h = 0; h < s.grid().rows(); ++h) {
    EXPECT_EQ(s.grid().stage_sum(h), 0.0);
  }
}

TYPED_TEST(SketchContractTest, AccumulateMatchesCombineIntoBitForBit) {
  // The grid sum in its two forms: in place (a += b) and destination reuse
  // as SketchBank::merge_shards runs it per grid (copy term 0 over a dirty
  // grid, accumulate the rest). Both equal, bit for bit, the sketch that
  // recorded both streams: COMBINE linearity.
  const typename TypeParam::Sketch a = this->recorded(5);
  const typename TypeParam::Sketch b = this->recorded(6);
  typename TypeParam::Sketch both = this->recorded(5);
  this->record_stream(both, 6);

  typename TypeParam::Sketch in_place = a;
  in_place.grid().accumulate(b.grid());
  this->expect_bit_identical(in_place, both);

  typename TypeParam::Sketch reused = this->recorded(9);  // dirty
  reused.grid() = a.grid();
  reused.grid().accumulate(b.grid());
  this->expect_bit_identical(reused, both);
}

// The read side: every 1D sketch estimates from a double grid of its shape
// through the code path that estimates from its own int32 grid, so the
// widened copy of its own counters reads bit for bit what it reads itself.
template <class Case>
class SketchReadTest : public SketchContractTest<Case> {};

using ReadCases =
    ::testing::Types<KaryCase, ReversibleCase, CompactCase,
                     InvertibleCase<SketchBackendKind::kReversible>,
                     InvertibleCase<SketchBackendKind::kCompact>>;
TYPED_TEST_SUITE(SketchReadTest, ReadCases);

TYPED_TEST(SketchReadTest, EstimateFromWidenedGridMatchesOwnGrid) {
  const typename TypeParam::Sketch s = this->recorded(8);
  const CounterGrid wide = CounterGrid::widened(s.grid(), 1.0);
  Pcg32 rng(8);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t key =
        (rng.bounded(2000) * 0x9e3779b1ULL) & 0xffffffffu;
    for (const double scale : {1.0, 2.5}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.estimate(key, wide, scale)),
                std::bit_cast<std::uint64_t>(s.estimate(key, scale)))
          << "key " << key << " scale " << scale;
    }
  }
}

}  // namespace
}  // namespace hifind
