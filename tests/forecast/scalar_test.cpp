#include "forecast/scalar.hpp"

#include <gtest/gtest.h>

namespace hifind {
namespace {

TEST(ScalarEwmaTest, FirstSampleSeedsMean) {
  ScalarEwma e(0.5);
  EXPECT_FALSE(e.primed());
  EXPECT_DOUBLE_EQ(e.mean_or(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(e.update(10.0), 10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.mean_or(-1.0), 10.0);
}

TEST(ScalarEwmaTest, FollowsRecurrence) {
  ScalarEwma e(0.25);
  e.update(100.0);
  EXPECT_DOUBLE_EQ(e.update(200.0), 0.25 * 200 + 0.75 * 100);
}

TEST(ScalarEwmaTest, RejectsBadAlpha) {
  EXPECT_THROW(ScalarEwma(0.0), std::invalid_argument);
  EXPECT_THROW(ScalarEwma(1.0001), std::invalid_argument);
}

TEST(CusumTest, StaysQuietWhenSamplesBelowOffset) {
  Cusum c(1.0, 5.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(c.update(0.5));
  }
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(CusumTest, AccumulatesAndAlarms) {
  Cusum c(1.0, 5.0);
  // Each sample contributes 2-1 = 1; alarm after value passes 5.
  int first_alarm = -1;
  for (int i = 0; i < 10; ++i) {
    if (c.update(2.0) && first_alarm < 0) first_alarm = i;
  }
  EXPECT_EQ(first_alarm, 5);
}

TEST(CusumTest, RecoversAfterChangeEnds) {
  Cusum c(1.0, 3.0);
  for (int i = 0; i < 10; ++i) c.update(2.0);
  EXPECT_TRUE(c.alarmed());
  for (int i = 0; i < 20; ++i) c.update(0.0);
  EXPECT_FALSE(c.alarmed());
}

TEST(CusumTest, ResetClears) {
  Cusum c(0.5, 1.0);
  c.update(10.0);
  EXPECT_TRUE(c.alarmed());
  c.reset();
  EXPECT_FALSE(c.alarmed());
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(CusumTest, RejectsNonPositiveThreshold) {
  EXPECT_THROW(Cusum(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace hifind
