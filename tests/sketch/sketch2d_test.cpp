#include "sketch/sketch2d.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace hifind {
namespace {

Sketch2dConfig cfg(std::uint64_t seed = 1) {
  return Sketch2dConfig{.num_stages = 5, .x_buckets = 1u << 12,
                        .y_buckets = 64, .seed = seed};
}

TEST(TwoDSketchTest, RejectsDegenerateShapes) {
  EXPECT_THROW(TwoDSketch(Sketch2dConfig{.num_stages = 0}),
               std::invalid_argument);
  EXPECT_THROW(TwoDSketch(Sketch2dConfig{.x_buckets = 1}),
               std::invalid_argument);
  EXPECT_THROW(TwoDSketch(Sketch2dConfig{.y_buckets = 0}),
               std::invalid_argument);
}

TEST(TwoDSketchTest, ColumnHoldsUpdatedMass) {
  TwoDSketch s(cfg());
  const std::uint64_t x = pack_ip_ip(IPv4(1, 2, 3, 4), IPv4(5, 6, 7, 8));
  s.update(x, 80, 10);
  for (std::size_t h = 0; h < 5; ++h) {
    const auto col = s.column(h, x);
    ASSERT_EQ(col.size(), 64u);
    double sum = 0.0;
    for (double c : col) sum += c;
    EXPECT_NEAR(sum, 10.0, 1e-9) << "stage " << h;
  }
}

// The paper's core classification claim: SYN floods concentrate the
// secondary dimension; scans spread it.
TEST(TwoDSketchTest, FloodPatternClassifiesConcentrated) {
  TwoDSketch s(cfg(3));
  const std::uint64_t x = pack_ip_ip(IPv4(7, 7, 7, 7), IPv4(9, 9, 9, 9));
  for (int i = 0; i < 500; ++i) s.update(x, 80, 1);  // one port
  EXPECT_EQ(s.classify(x, 5, 0.8), ColumnShape::kConcentrated);
}

TEST(TwoDSketchTest, VscanPatternClassifiesSpread) {
  TwoDSketch s(cfg(3));
  const std::uint64_t x = pack_ip_ip(IPv4(7, 7, 7, 7), IPv4(9, 9, 9, 9));
  for (int port = 1; port <= 500; ++port) {
    s.update(x, static_cast<std::uint64_t>(port), 1);
  }
  EXPECT_EQ(s.classify(x, 5, 0.8), ColumnShape::kSpread);
}

TEST(TwoDSketchTest, TwoPortFloodStillConcentrated) {
  // Floods may hit a service on a pair of ports (e.g. 80+443).
  TwoDSketch s(cfg(4));
  const std::uint64_t x = pack_ip_ip(IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2));
  for (int i = 0; i < 300; ++i) {
    s.update(x, 80, 1);
    s.update(x, 443, 1);
  }
  EXPECT_EQ(s.classify(x, 5, 0.8), ColumnShape::kConcentrated);
}

TEST(TwoDSketchTest, EmptyColumnReportsSpread) {
  TwoDSketch s(cfg());
  EXPECT_EQ(s.classify(12345, 5, 0.8), ColumnShape::kSpread);
}

TEST(TwoDSketchTest, NegativeMassDoesNotFlipVerdict) {
  TwoDSketch s(cfg(5));
  const std::uint64_t x = pack_ip_ip(IPv4(3, 3, 3, 3), IPv4(4, 4, 4, 4));
  for (int i = 0; i < 200; ++i) s.update(x, 22, 1);
  // Benign completed handshakes on colliding keys push other cells negative.
  for (int port = 100; port < 150; ++port) {
    s.update(x, static_cast<std::uint64_t>(port), -2);
  }
  EXPECT_EQ(s.classify(x, 5, 0.8), ColumnShape::kConcentrated);
}

TEST(TwoDSketchTest, ClassificationRobustToBackgroundCollisions) {
  TwoDSketch s(cfg(6));
  Pcg32 rng(8);
  for (int i = 0; i < 50000; ++i) {
    s.update(rng.next64(), rng.next() & 0xffff, 1);
  }
  const std::uint64_t flood_x = pack_ip_ip(IPv4(66, 66, 6, 6),
                                           IPv4(129, 105, 3, 3));
  for (int i = 0; i < 2000; ++i) s.update(flood_x, 80, 1);
  EXPECT_EQ(s.classify(flood_x, 5, 0.8), ColumnShape::kConcentrated);

  const std::uint64_t scan_x = pack_ip_ip(IPv4(77, 7, 7, 7),
                                          IPv4(129, 105, 4, 4));
  for (int port = 0; port < 2000; ++port) {
    s.update(scan_x, static_cast<std::uint64_t>(port), 1);
  }
  EXPECT_EQ(s.classify(scan_x, 5, 0.8), ColumnShape::kSpread);
}

TEST(TwoDSketchTest, CombineEqualsSingleRecorder) {
  TwoDSketch a(cfg(9)), b(cfg(9)), whole(cfg(9));
  Pcg32 rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t x = rng.next() & 0xff;
    const std::uint64_t y = rng.next() & 0xffff;
    (rng.chance(0.5) ? a : b).update(x, y, 1);
    whole.update(x, y, 1);
  }
  const std::vector<const TwoDSketch*> terms{&a, &b};
  const TwoDSketch combined = TwoDSketch::combine(terms);
  const auto cw = whole.counters();
  const auto cc = combined.counters();
  ASSERT_EQ(cw.size(), cc.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    ASSERT_EQ(cw[i], cc[i]);
  }
}

TEST(TwoDSketchTest, CombineIntoMatchesCombineOnDirtyDestination) {
  TwoDSketch a(cfg(9)), b(cfg(9));
  Pcg32 rng(5);
  for (int i = 0; i < 2000; ++i) {
    (rng.chance(0.5) ? a : b)
        .update(rng.next() & 0xff, rng.next() & 0xffff, 1);
  }
  const std::vector<const TwoDSketch*> terms{&a, &b};
  const TwoDSketch reference = TwoDSketch::combine(terms);
  TwoDSketch dest(cfg(9));
  dest.update(3, 3, 99);  // stale state combine_into must fully overwrite
  dest.combine_into(terms);
  const auto rc = reference.counters();
  const auto dc = dest.counters();
  ASSERT_EQ(rc.size(), dc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) ASSERT_EQ(rc[i], dc[i]);
  EXPECT_EQ(dest.update_count(), a.update_count() + b.update_count());
}

TEST(TwoDSketchTest, CombineRejectsMismatch) {
  TwoDSketch a(cfg(1)), b(cfg(2));
  EXPECT_THROW(a.accumulate(b), std::invalid_argument);
}

TEST(TwoDSketchTest, AccessesPerUpdateIsStageCount) {
  EXPECT_EQ(TwoDSketch(cfg()).accesses_per_update(), 5u);
}

// Sweep phi: stricter phi eventually flips a moderately concentrated column.
class PhiSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhiSweep, ThreePortPatternVerdictMonotoneInPhi) {
  const double phi = GetParam();
  TwoDSketch s(cfg(11));
  const std::uint64_t x = 42;
  // 3 ports, 97% of mass on them; spread across 30 more ports for the rest.
  for (int i = 0; i < 970; ++i) s.update(x, 80 + (i % 3), 1);
  for (int port = 0; port < 30; ++port) {
    s.update(x, 1000 + static_cast<std::uint64_t>(port), 1);
  }
  const ColumnShape verdict = s.classify(x, 5, phi);
  if (phi <= 0.9) {
    EXPECT_EQ(verdict, ColumnShape::kConcentrated) << "phi=" << phi;
  } else {
    EXPECT_EQ(verdict, ColumnShape::kSpread) << "phi=" << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(PhiGrid, PhiSweep,
                         ::testing::Values(0.5, 0.7, 0.8, 0.9, 0.99));

}  // namespace
}  // namespace hifind
