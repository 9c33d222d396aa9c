#include "detect/fp_filters.hpp"

#include <gtest/gtest.h>


namespace hifind {
namespace {

TEST(RatioFilterTest, KeepsPureFlood) {
  RatioFilter f(3.0);
  // 600 SYNs, none answered: unresponded == syn.
  EXPECT_TRUE(f.keep(600.0, 600.0));
}

TEST(RatioFilterTest, DropsCongestionWithManyAnswers) {
  RatioFilter f(3.0);
  // 600 SYNs, 400 answered: server is alive, just slow -> congestion.
  EXPECT_FALSE(f.keep(600.0, 200.0));
}

TEST(RatioFilterTest, BoundaryAtConfiguredRatio) {
  RatioFilter f(3.0);
  // syn=300, synack=100 -> ratio exactly 3: keep.
  EXPECT_TRUE(f.keep(300.0, 200.0));
  // syn=299, synack=100 -> ratio just under 3: drop.
  EXPECT_FALSE(f.keep(299.0, 199.0));
}

TEST(RatioFilterTest, NegativeSynackEstimateIsFloodConsistent) {
  RatioFilter f(3.0);
  // Sketch noise can make unresponded > syn; treat as flood-consistent.
  EXPECT_TRUE(f.keep(100.0, 120.0));
}

TEST(PersistenceFilterTest, RequiresConsecutiveIntervals) {
  PersistenceFilter f(2);
  f.begin_interval();
  EXPECT_FALSE(f.observe(42)) << "first sighting must not pass";
  f.end_interval();
  f.begin_interval();
  EXPECT_TRUE(f.observe(42)) << "second consecutive sighting passes";
  f.end_interval();
}

TEST(PersistenceFilterTest, GapResetsRun) {
  PersistenceFilter f(2);
  f.begin_interval();
  f.observe(42);
  f.end_interval();
  // Interval with no observation of key 42.
  f.begin_interval();
  f.end_interval();
  f.begin_interval();
  EXPECT_FALSE(f.observe(42)) << "run restarted after a quiet interval";
  f.end_interval();
}

TEST(PersistenceFilterTest, MinOneAlwaysPasses) {
  PersistenceFilter f(1);
  f.begin_interval();
  EXPECT_TRUE(f.observe(7));
  f.end_interval();
}

TEST(PersistenceFilterTest, KeysTrackedIndependently) {
  PersistenceFilter f(2);
  f.begin_interval();
  f.observe(1);
  f.end_interval();
  f.begin_interval();
  EXPECT_TRUE(f.observe(1));
  EXPECT_FALSE(f.observe(2));
  f.end_interval();
}

}  // namespace
}  // namespace hifind
