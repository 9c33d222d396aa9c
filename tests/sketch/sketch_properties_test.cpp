// Seed-sweep property tests: the sketch invariants must hold for EVERY hash
// family, not just the default test seed. Each property runs across a set
// of seeds via TEST_P.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/sketch2d.hpp"

namespace hifind {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, ManglerIsBijectiveOnRandomSample) {
  const std::uint64_t seed = GetParam();
  for (const int bits : {32, 48, 64}) {
    KeyMangler m(seed, bits);
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    Pcg32 rng(seed ^ 0x1234);
    std::set<std::uint64_t> images;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t k = rng.next64() & mask;
      const std::uint64_t y = m.mangle(k);
      EXPECT_LE(y, mask);
      EXPECT_EQ(m.unmangle(y), k);
      images.insert(y);
    }
    // Random keys may repeat; images must repeat EXACTLY as often (checked
    // implicitly by round-trip); spot-check distinctness of a sequential run.
    std::set<std::uint64_t> seq;
    for (std::uint64_t k = 0; k < 512; ++k) seq.insert(m.mangle(k));
    EXPECT_EQ(seq.size(), 512u);
  }
}

TEST_P(SeedSweep, KarySketchLinearity) {
  const std::uint64_t seed = GetParam();
  const KarySketchConfig cfg{.num_stages = 5, .num_buckets = 1u << 10,
                             .seed = seed};
  KarySketch a(cfg), b(cfg), whole(cfg);
  Pcg32 rng(seed);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.next64() & 0xfffff;
    // Mixed-sign values.
    const std::int32_t v = static_cast<std::int32_t>(rng.bounded(5)) - 1;
    (rng.chance(0.5) ? a : b).update(key, v);
    whole.update(key, v);
  }
  const double ca = 0.7, cb = 0.3;  // arbitrary linear combination
  CounterGrid combo(cfg.num_stages, cfg.num_buckets, 0);
  combo.accumulate(CounterGrid::widened(a.grid(), 1.0), ca);
  combo.accumulate(CounterGrid::widened(b.grid(), 1.0), cb);
  // combo = 0.7a + 0.3b; check against per-key identity on raw counters.
  const auto sa = a.grid().counters();
  const auto sb = b.grid().counters();
  const auto sc = combo.counters();
  for (std::size_t i = 0; i < sc.size(); i += 37) {
    ASSERT_NEAR(sc[i], ca * sa[i] + cb * sb[i], 1e-9);
  }
}

TEST_P(SeedSweep, ReversibleSketchInferenceRecallUnderNoise) {
  const std::uint64_t seed = GetParam();
  ReversibleSketch s(ReversibleSketchConfig{.key_bits = 48, .num_stages = 6,
                                            .bucket_bits = 12, .seed = seed});
  Pcg32 rng(seed ^ 0x9876);
  for (int i = 0; i < 15000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  std::set<std::uint64_t> heavy;
  while (heavy.size() < 8) heavy.insert(rng.next64() & ((1ULL << 48) - 1));
  for (const std::uint64_t k : heavy) s.update(k, 400.0);

  const InferenceResult r =
      infer_heavy_keys(s, CounterGrid::widened(s.grid(), 1.0), 200.0);
  for (const std::uint64_t k : heavy) {
    bool found = false;
    for (const HeavyKey& h : r.keys) found |= h.key == k;
    EXPECT_TRUE(found) << "seed " << seed << " missed a heavy key";
  }
}

TEST_P(SeedSweep, TwoDClassificationSeparatesFloodFromScan) {
  const std::uint64_t seed = GetParam();
  TwoDSketch s(Sketch2dConfig{.num_stages = 5, .x_buckets = 1u << 10,
                              .y_buckets = 64, .seed = seed});
  const std::uint64_t flood_x = 111, scan_x = 222;
  for (int i = 0; i < 300; ++i) s.update(flood_x, 80, 1);
  for (int i = 0; i < 300; ++i) {
    s.update(scan_x, static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(s.classify(flood_x), ColumnShape::kConcentrated) << seed;
  EXPECT_EQ(s.classify(scan_x), ColumnShape::kSpread) << seed;
}

TEST_P(SeedSweep, EstimateUnbiasedOverManyKeys) {
  const std::uint64_t seed = GetParam();
  KarySketch s(KarySketchConfig{.num_stages = 6, .num_buckets = 1u << 12,
                                .seed = seed});
  Pcg32 rng(seed + 1);
  for (int i = 0; i < 20000; ++i) s.update(rng.next64(), 1.0);
  // Mean estimate over 200 absent keys should hover near zero.
  double total = 0.0;
  for (int i = 0; i < 200; ++i) total += s.estimate(rng.next64());
  EXPECT_NEAR(total / 200.0, 0.0, 1.5) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 42ull,
                                           0xdeadbeefull,
                                           0x123456789abcdefull));

}  // namespace
}  // namespace hifind
