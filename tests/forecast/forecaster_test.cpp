#include "forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"

namespace hifind {
namespace {

KarySketchConfig kcfg() {
  return KarySketchConfig{.num_stages = 4, .num_buckets = 1u << 8, .seed = 3};
}

KarySketch observed(double value_for_key_7) {
  KarySketch s(kcfg());
  s.update(7, value_for_key_7);
  return s;
}

TEST(EwmaForecasterTest, RejectsBadAlpha) {
  EXPECT_THROW(EwmaForecaster<KarySketch>(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaForecaster<KarySketch>(1.5), std::invalid_argument);
}

TEST(EwmaForecasterTest, FirstStepWarmsUpOnly) {
  EwmaForecaster<KarySketch> f(0.5);
  EXPECT_FALSE(f.step(observed(10.0)).has_value());
}

TEST(EwmaForecasterTest, SecondStepErrorIsObservedMinusFirst) {
  // Paper Eq. 1: M_f(2) = M_0(1); e(2) = M_0(2) - M_0(1).
  EwmaForecaster<KarySketch> f(0.5);
  f.step(observed(10.0));
  const auto e = f.step(observed(14.0));
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->estimate(7), 4.0, 1e-9);
}

TEST(EwmaForecasterTest, MatchesScalarRecurrence) {
  // Track the sketch EWMA against the scalar recurrence for one key.
  const double alpha = 0.3;
  EwmaForecaster<KarySketch> f(alpha);
  const double obs[] = {10, 12, 9, 30, 11, 10};
  double forecast = 0.0;
  bool primed = false;
  for (const double o : obs) {
    const auto e = f.step(observed(o));
    if (!primed) {
      forecast = o;
      primed = true;
      EXPECT_FALSE(e.has_value());
      continue;
    }
    ASSERT_TRUE(e.has_value());
    EXPECT_NEAR(e->estimate(7), o - forecast, 1e-9);
    forecast = alpha * o + (1 - alpha) * forecast;
  }
}

TEST(EwmaForecasterTest, StableTrafficYieldsNearZeroError) {
  EwmaForecaster<KarySketch> f(0.5);
  for (int i = 0; i < 10; ++i) {
    const auto e = f.step(observed(100.0));
    if (e) {
      EXPECT_NEAR(e->estimate(7), 0.0, 1e-9);
    }
  }
}

TEST(EwmaForecasterTest, SpikeShowsUpOnceThenDecays) {
  EwmaForecaster<KarySketch> f(0.5);
  f.step(observed(100.0));
  f.step(observed(100.0));
  const auto spike = f.step(observed(600.0));
  ASSERT_TRUE(spike.has_value());
  EXPECT_NEAR(spike->estimate(7), 500.0, 1e-9);
  // Next interval back at baseline: error is negative (forecast absorbed
  // half the spike), not another alarm.
  const auto after = f.step(observed(100.0));
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(after->estimate(7), 0.0);
}

TEST(EwmaForecasterTest, ResetForgetsHistory) {
  EwmaForecaster<KarySketch> f(0.5);
  f.step(observed(100.0));
  f.reset();
  EXPECT_FALSE(f.step(observed(500.0)).has_value());
}

TEST(EwmaForecasterTest, WorksOnReversibleSketches) {
  ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 6,
                             .bucket_bits = 12, .seed = 5};
  EwmaForecaster<ReversibleSketch> f(0.5);
  ReversibleSketch s1(cfg), s2(cfg);
  s1.update(42, 10.0);
  s2.update(42, 50.0);
  f.step(s1);
  const auto e = f.step(s2);
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->estimate(42), 40.0, 1e-9);
}

TEST(MovingAverageForecasterTest, AveragesWindow) {
  MovingAverageForecaster<KarySketch> f(3);
  f.step(observed(10.0));
  f.step(observed(20.0));
  f.step(observed(30.0));
  const auto e = f.step(observed(50.0));  // forecast = (10+20+30)/3 = 20
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->estimate(7), 30.0, 1e-9);
}

TEST(MovingAverageForecasterTest, WindowSlides) {
  MovingAverageForecaster<KarySketch> f(2);
  f.step(observed(10.0));
  f.step(observed(20.0));
  f.step(observed(30.0));
  const auto e = f.step(observed(0.0));  // forecast = (20+30)/2 = 25
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->estimate(7), -25.0, 1e-9);
}

TEST(HoltForecasterTest, NeedsTwoWarmupIntervals) {
  HoltForecaster<KarySketch> f(0.5, 0.3);
  EXPECT_FALSE(f.step(observed(10.0)).has_value());
  EXPECT_FALSE(f.step(observed(20.0)).has_value());
  EXPECT_TRUE(f.step(observed(30.0)).has_value());
}

TEST(HoltForecasterTest, TracksLinearTrendWithNearZeroError) {
  // A pure ramp: Holt should forecast it almost exactly; EWMA would lag.
  HoltForecaster<KarySketch> f(0.5, 0.5);
  std::optional<KarySketch> last_error;
  for (int i = 1; i <= 12; ++i) {
    last_error = f.step(observed(10.0 * i));
  }
  ASSERT_TRUE(last_error.has_value());
  EXPECT_NEAR(last_error->estimate(7), 0.0, 2.0);

  EwmaForecaster<KarySketch> g(0.5);
  std::optional<KarySketch> ewma_error;
  for (int i = 1; i <= 12; ++i) ewma_error = g.step(observed(10.0 * i));
  ASSERT_TRUE(ewma_error.has_value());
  EXPECT_GT(ewma_error->estimate(7), 5.0) << "EWMA lags a ramp";
}

TEST(MakeForecasterTest, FactoryProducesEachModel) {
  for (const ForecastModel m :
       {ForecastModel::kEwma, ForecastModel::kMovingAverage,
        ForecastModel::kHolt}) {
    auto f = make_forecaster<KarySketch>(m);
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->step(observed(1.0)).has_value());
  }
}

}  // namespace
}  // namespace hifind
