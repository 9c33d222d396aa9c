#include "common/interval.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hifind {
namespace {

TEST(IntervalClockTest, MapsTimestampsToMinuteIntervals) {
  IntervalClock clock(60);
  EXPECT_EQ(clock.interval_of(0), 0u);
  EXPECT_EQ(clock.interval_of(59 * kMicrosPerSecond + 999999), 0u);
  EXPECT_EQ(clock.interval_of(60 * kMicrosPerSecond), 1u);
  EXPECT_EQ(clock.interval_of(3600 * kMicrosPerSecond), 60u);
}

TEST(IntervalClockTest, IntervalStartIsInverseOfIntervalOf) {
  IntervalClock clock(30);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(clock.interval_of(clock.interval_start(i)), i);
    EXPECT_EQ(clock.interval_of(clock.interval_start(i + 1) - 1), i);
  }
}

TEST(IntervalClockTest, WidthAccessors) {
  IntervalClock clock(5);
  EXPECT_EQ(clock.width_us(), 5 * kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(clock.width_seconds(), 5.0);
}

TEST(IntervalClockTest, RejectsZeroWidth) {
  // A zero width would make interval_of() divide by zero on the first
  // packet.
  EXPECT_THROW(IntervalClock(0), std::invalid_argument);
  EXPECT_NO_THROW(IntervalClock(1));
}

}  // namespace
}  // namespace hifind
