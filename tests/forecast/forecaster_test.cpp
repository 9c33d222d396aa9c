// Behaviour of the EWMA Forecaster (paper Eq. 1).
#include "forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include "sketch/kary_sketch.hpp"
#include "sketch/reversible_sketch.hpp"

namespace hifind {
namespace {

KarySketchConfig kcfg() {
  return KarySketchConfig{.num_stages = 4, .num_buckets = 1u << 8, .seed = 3};
}

/// The error grid's estimate of `key`, read through the observed sketches'
/// hashing.
double estimate(const CounterGrid& error, std::uint64_t key) {
  return KarySketch(kcfg()).estimate(key, error);
}

/// An interval's int32 recording sketch holding `value_for_key_7` at key 7.
KarySketch observed(std::int32_t value_for_key_7) {
  KarySketch s(kcfg());
  s.update(7, value_for_key_7);
  return s;
}

TEST(EwmaForecasterTest, RejectsBadAlpha) {
  EXPECT_THROW(Forecaster<KarySketch>(0.0),
               std::invalid_argument);
  EXPECT_THROW(Forecaster<KarySketch>(1.5),
               std::invalid_argument);
}

TEST(EwmaForecasterTest, FirstStepWarmsUpOnly) {
  Forecaster<KarySketch> f(0.5);
  EXPECT_EQ(f.step(observed(10)), nullptr);
}

TEST(EwmaForecasterTest, SecondStepErrorIsObservedMinusFirst) {
  // Paper Eq. 1: M_f(2) = M_0(1); e(2) = M_0(2) - M_0(1).
  Forecaster<KarySketch> f(0.5);
  f.step(observed(10));
  const CounterGrid* e = f.step(observed(14));
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(estimate(*e, 7), 4.0, 1e-9);
}

TEST(EwmaForecasterTest, MatchesScalarRecurrence) {
  // Track the sketch EWMA against the scalar recurrence for one key.
  const double alpha = 0.3;
  Forecaster<KarySketch> f(alpha);
  const std::int32_t obs[] = {10, 12, 9, 30, 11, 10};
  double forecast = 0.0;
  bool primed = false;
  for (const std::int32_t o : obs) {
    const CounterGrid* e = f.step(observed(o));
    if (!primed) {
      forecast = o;
      primed = true;
      EXPECT_EQ(e, nullptr);
      continue;
    }
    ASSERT_NE(e, nullptr);
    EXPECT_NEAR(estimate(*e, 7), o - forecast, 1e-9);
    forecast = alpha * o + (1 - alpha) * forecast;
  }
}

TEST(EwmaForecasterTest, StableTrafficYieldsNearZeroError) {
  Forecaster<KarySketch> f(0.5);
  for (int i = 0; i < 10; ++i) {
    const CounterGrid* e = f.step(observed(100));
    if (e) {
      EXPECT_NEAR(estimate(*e, 7), 0.0, 1e-9);
    }
  }
}

TEST(EwmaForecasterTest, SpikeShowsUpOnceThenDecays) {
  Forecaster<KarySketch> f(0.5);
  f.step(observed(100));
  f.step(observed(100));
  const CounterGrid* spike = f.step(observed(600));
  ASSERT_NE(spike, nullptr);
  EXPECT_NEAR(estimate(*spike, 7), 500.0, 1e-9);
  // Next interval back at baseline: error is negative (forecast absorbed
  // half the spike), not another alarm.
  const CounterGrid* after = f.step(observed(100));
  ASSERT_NE(after, nullptr);
  EXPECT_LT(estimate(*after, 7), 0.0);
}

TEST(EwmaForecasterTest, ResetForgetsHistory) {
  Forecaster<KarySketch> f(0.5);
  f.step(observed(100));
  f.reset();
  EXPECT_EQ(f.step(observed(500)), nullptr);
}

TEST(EwmaForecasterTest, WorksOnReversibleSketches) {
  ReversibleSketchConfig cfg{.key_bits = 48, .num_stages = 6,
                             .bucket_bits = 12, .seed = 5};
  Forecaster<ReversibleSketch> f(0.5);
  ReversibleSketch s1(cfg), s2(cfg);
  s1.update(42, 10);
  s2.update(42, 50);
  f.step(s1);
  const CounterGrid* e = f.step(s2);
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(s2.estimate(42, *e), 40.0, 1e-9);
}

TEST(ForecasterTest, RejectsObservationOfAnotherShapeOrSeed) {
  Forecaster<KarySketch> f(0.5);
  for (int i = 0; i < 4; ++i) f.step(observed(1));
  KarySketchConfig other_shape = kcfg();
  other_shape.num_buckets *= 2;
  KarySketchConfig other_seed = kcfg();
  other_seed.seed += 1;
  EXPECT_THROW(f.step(KarySketch(other_shape)), std::invalid_argument);
  EXPECT_THROW(f.step(KarySketch(other_seed)), std::invalid_argument);
  // A rejected observation leaves the forecaster usable.
  EXPECT_NE(f.step(observed(1)), nullptr);
  // The check holds from the first observation on, warm-up included.
  Forecaster<KarySketch> fresh(0.5);
  fresh.step(observed(1));
  EXPECT_THROW(fresh.step(KarySketch(other_seed)), std::invalid_argument);
  // reset() forgets the shape too: a new trace may change it.
  fresh.reset();
  EXPECT_EQ(fresh.step(KarySketch(other_shape)), nullptr);
}

}  // namespace
}  // namespace hifind
