// Per-model behaviour of Forecaster; each suite is named after the model
// it covers.
#include "forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"

namespace hifind {
namespace {

KarySketchConfig kcfg() {
  return KarySketchConfig{.num_stages = 4, .num_buckets = 1u << 8, .seed = 3};
}

/// An interval's int32 recording sketch holding `value_for_key_7` at key 7.
KarySketch32 observed(std::int32_t value_for_key_7) {
  KarySketch32 s(kcfg());
  s.update(7, value_for_key_7);
  return s;
}

TEST(EwmaForecasterTest, RejectsBadAlpha) {
  EXPECT_THROW(Forecaster<KarySketch>(ForecastModel::kEwma, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Forecaster<KarySketch>(ForecastModel::kEwma, 1.5),
               std::invalid_argument);
}

TEST(EwmaForecasterTest, FirstStepWarmsUpOnly) {
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  EXPECT_EQ(f.step(observed(10)), nullptr);
}

TEST(EwmaForecasterTest, SecondStepErrorIsObservedMinusFirst) {
  // Paper Eq. 1: M_f(2) = M_0(1); e(2) = M_0(2) - M_0(1).
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  f.step(observed(10));
  const KarySketch* e = f.step(observed(14));
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->estimate(7), 4.0, 1e-9);
}

TEST(EwmaForecasterTest, MatchesScalarRecurrence) {
  // Track the sketch EWMA against the scalar recurrence for one key.
  const double alpha = 0.3;
  Forecaster<KarySketch> f(ForecastModel::kEwma, alpha);
  const std::int32_t obs[] = {10, 12, 9, 30, 11, 10};
  double forecast = 0.0;
  bool primed = false;
  for (const std::int32_t o : obs) {
    const KarySketch* e = f.step(observed(o));
    if (!primed) {
      forecast = o;
      primed = true;
      EXPECT_EQ(e, nullptr);
      continue;
    }
    ASSERT_NE(e, nullptr);
    EXPECT_NEAR(e->estimate(7), o - forecast, 1e-9);
    forecast = alpha * o + (1 - alpha) * forecast;
  }
}

TEST(EwmaForecasterTest, StableTrafficYieldsNearZeroError) {
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  for (int i = 0; i < 10; ++i) {
    const KarySketch* e = f.step(observed(100));
    if (e) {
      EXPECT_NEAR(e->estimate(7), 0.0, 1e-9);
    }
  }
}

TEST(EwmaForecasterTest, SpikeShowsUpOnceThenDecays) {
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  f.step(observed(100));
  f.step(observed(100));
  const KarySketch* spike = f.step(observed(600));
  ASSERT_NE(spike, nullptr);
  EXPECT_NEAR(spike->estimate(7), 500.0, 1e-9);
  // Next interval back at baseline: error is negative (forecast absorbed
  // half the spike), not another alarm.
  const KarySketch* after = f.step(observed(100));
  ASSERT_NE(after, nullptr);
  EXPECT_LT(after->estimate(7), 0.0);
}

TEST(EwmaForecasterTest, ResetForgetsHistory) {
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  f.step(observed(100));
  f.reset();
  EXPECT_EQ(f.step(observed(500)), nullptr);
}

TEST(EwmaForecasterTest, WorksOnReversibleSketches) {
  ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 6,
                             .bucket_bits = 12, .seed = 5};
  Forecaster<ReversibleSketch> f(ForecastModel::kEwma, 0.5);
  ReversibleSketch32 s1(cfg), s2(cfg);
  s1.update(42, 10);
  s2.update(42, 50);
  f.step(s1);
  const ReversibleSketch* e = f.step(s2);
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->estimate(42), 40.0, 1e-9);
}

TEST(MovingAverageForecasterTest, AveragesWindow) {
  Forecaster<KarySketch> f(ForecastModel::kMovingAverage, 0.5, 0.2, 3);
  f.step(observed(10));
  f.step(observed(20));
  f.step(observed(30));
  // forecast = (10+20+30)/3 = 20
  const KarySketch* e = f.step(observed(50));
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->estimate(7), 30.0, 1e-9);
}

TEST(MovingAverageForecasterTest, WindowSlides) {
  Forecaster<KarySketch> f(ForecastModel::kMovingAverage, 0.5, 0.2, 2);
  f.step(observed(10));
  f.step(observed(20));
  f.step(observed(30));
  // forecast = (20+30)/2 = 25
  const KarySketch* e = f.step(observed(0));
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->estimate(7), -25.0, 1e-9);
}

TEST(HoltForecasterTest, NeedsTwoWarmupIntervals) {
  Forecaster<KarySketch> f(ForecastModel::kHolt, 0.5, 0.3);
  EXPECT_EQ(f.step(observed(10)), nullptr);
  EXPECT_EQ(f.step(observed(20)), nullptr);
  EXPECT_NE(f.step(observed(30)), nullptr);
}

TEST(HoltForecasterTest, TracksLinearTrendWithNearZeroError) {
  // A pure ramp: Holt should forecast it almost exactly; EWMA would lag.
  Forecaster<KarySketch> f(ForecastModel::kHolt, 0.5, 0.5);
  const KarySketch* last_error = nullptr;
  for (int i = 1; i <= 12; ++i) {
    last_error = f.step(observed(10 * i));
  }
  ASSERT_NE(last_error, nullptr);
  EXPECT_NEAR(last_error->estimate(7), 0.0, 2.0);

  Forecaster<KarySketch> g(ForecastModel::kEwma, 0.5);
  const KarySketch* ewma_error = nullptr;
  for (int i = 1; i <= 12; ++i) ewma_error = g.step(observed(10 * i));
  ASSERT_NE(ewma_error, nullptr);
  EXPECT_GT(ewma_error->estimate(7), 5.0) << "EWMA lags a ramp";
}

TEST(ForecasterTest, RejectsBadParametersOfTheSelectedModelOnly) {
  EXPECT_THROW(Forecaster<KarySketch>(ForecastModel::kHolt, 0.5, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Forecaster<KarySketch>(ForecastModel::kMovingAverage, 0.5, 0.2,
                                      0),
               std::invalid_argument);
  // Parameters of other models are not checked.
  EXPECT_NO_THROW(Forecaster<KarySketch>(ForecastModel::kEwma, 0.5, 0.0, 0));
  EXPECT_NO_THROW(
      Forecaster<KarySketch>(ForecastModel::kMovingAverage, 0.0, 0.0, 1));
}

TEST(ForecasterTest, RejectsObservationOfAnotherShapeOrSeed) {
  for (const ForecastModel m :
       {ForecastModel::kEwma, ForecastModel::kMovingAverage,
        ForecastModel::kHolt}) {
    Forecaster<KarySketch> f(m);
    for (int i = 0; i < 4; ++i) f.step(observed(1));
    KarySketchConfig other_shape = kcfg();
    other_shape.num_buckets *= 2;
    KarySketchConfig other_seed = kcfg();
    other_seed.seed += 1;
    EXPECT_THROW(f.step(KarySketch32(other_shape)), std::invalid_argument)
        << static_cast<int>(m);
    EXPECT_THROW(f.step(KarySketch32(other_seed)), std::invalid_argument)
        << static_cast<int>(m);
    // A rejected observation leaves the forecaster usable.
    EXPECT_NE(f.step(observed(1)), nullptr);
    // The check holds from the first observation on, warm-up included.
    Forecaster<KarySketch> fresh(m);
    fresh.step(observed(1));
    EXPECT_THROW(fresh.step(KarySketch32(other_seed)), std::invalid_argument)
        << static_cast<int>(m);
    // reset() forgets the shape too: a new trace may change it.
    fresh.reset();
    EXPECT_EQ(fresh.step(KarySketch32(other_shape)), nullptr);
  }
}

}  // namespace
}  // namespace hifind
