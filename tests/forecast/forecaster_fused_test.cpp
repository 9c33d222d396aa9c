// Equivalence and allocation tests for the fused, allocation-free forecaster
// steps:
//  * EWMA and Holt step() output is BIT-IDENTICAL to the seed's
//    copy/scale/accumulate formulation over a double copy of each int32
//    observation, step after step;
//  * the moving average's incremental running sum matches the naive
//    re-summed window to rounding (and exactly until the first eviction);
//  * a step with a heavy list hands back exactly heavy_buckets(error,
//    threshold);
//  * steady-state steps of every model perform ZERO heap allocations
//    (counting global operator new).
#include "forecast/forecaster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/reversible_sketch.hpp"

// --- Counting global allocator -------------------------------------------
// Replacing operator new in this TU replaces it binary-wide; counting is
// gated on a flag so only the measured regions are observed.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hifind {
namespace {

class AllocGuard {
 public:
  AllocGuard() {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
  }
  ~AllocGuard() { g_count_allocs.store(false); }
  std::size_t count() const { return g_alloc_count.load(); }
};

KarySketchConfig small_kary() {
  return KarySketchConfig{.num_stages = 4, .num_buckets = 64, .seed = 9};
}

/// A fresh int32 observation sketch: unit deltas, or (varied) mixed-sign
/// weights up to 5.
KarySketch32 observation(Pcg32& rng, bool varied = false) {
  KarySketch32 s(small_kary());
  for (int i = 0; i < 150; ++i) {
    s.update(rng.next64(),
             varied ? static_cast<std::int32_t>(rng.next() % 9) - 3 : 1);
  }
  return s;
}

ReversibleSketch32 rs_observation(Pcg32& rng) {
  ReversibleSketch32 s(ReversibleSketchConfig{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 9});
  for (int i = 0; i < 150; ++i) s.update(rng.next(), 1);
  return s;
}

/// The observation as a double sketch: what the naive references read.
KarySketch widened(const KarySketch32& obs) {
  KarySketch out(obs.config());
  out.grid().assign_scaled(obs.grid(), 1.0);
  return out;
}

template <class S>
void expect_bitwise_equal(const S& a, const S& b, int step) {
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i], cb[i]) << "step " << step << " counter " << i;
  }
  for (std::size_t h = 0; h < a.num_stages(); ++h) {
    ASSERT_EQ(a.stage_sum(h), b.stage_sum(h)) << "step " << step << " stage "
                                              << h;
  }
}

// --- Naive (seed-formulation) references ---------------------------------
// Whole-sketch passes over double sketches, per element: y *= c and
// y += c*x (counters and stage sums alike).

template <class S>
void scale(S& y, double c) {
  CounterGrid& g = y.grid();
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] *= c;
  for (std::size_t h = 0; h < g.rows(); ++h) g.sums()[h] *= c;
}

template <class S>
void accumulate(S& y, const S& x, double c) {
  y.grid().accumulate(x.grid(), c);
}

template <class S>
class NaiveEwma {
 public:
  explicit NaiveEwma(double alpha) : alpha_(alpha) {}
  std::optional<S> step(const S& observed) {
    if (!forecast_) {
      forecast_.emplace(observed);
      return std::nullopt;
    }
    S error(observed);
    accumulate(error, *forecast_, -1.0);
    scale(*forecast_, 1.0 - alpha_);
    accumulate(*forecast_, observed, alpha_);
    return error;
  }

 private:
  double alpha_;
  std::optional<S> forecast_;
};

template <class S>
class NaiveHolt {
 public:
  NaiveHolt(double alpha, double beta) : alpha_(alpha), beta_(beta) {}
  std::optional<S> step(const S& observed) {
    if (!level_) {
      level_.emplace(observed);
      return std::nullopt;
    }
    if (!trend_) {
      trend_.emplace(observed);
      accumulate(*trend_, *level_, -1.0);
      level_.emplace(observed);
      return std::nullopt;
    }
    S forecast(*level_);
    accumulate(forecast, *trend_, 1.0);
    S error(observed);
    accumulate(error, forecast, -1.0);
    S new_level(forecast);
    scale(new_level, 1.0 - alpha_);
    accumulate(new_level, observed, alpha_);
    S delta(new_level);
    accumulate(delta, *level_, -1.0);
    scale(*trend_, 1.0 - beta_);
    accumulate(*trend_, delta, beta_);
    level_.emplace(std::move(new_level));
    return error;
  }

 private:
  double alpha_, beta_;
  std::optional<S> level_;
  std::optional<S> trend_;
};

/// O(window) reference: re-sums the whole ring every step.
template <class S>
class NaiveMovingAverage {
 public:
  explicit NaiveMovingAverage(std::size_t window) : window_(window) {}
  std::optional<S> step(const S& observed) {
    std::optional<S> error;
    if (!ring_.empty()) {
      S forecast(ring_[0]);
      for (std::size_t i = 1; i < ring_.size(); ++i) {
        accumulate(forecast, ring_[i], 1.0);
      }
      scale(forecast, 1.0 / static_cast<double>(ring_.size()));
      error.emplace(observed);
      accumulate(*error, forecast, -1.0);
    }
    ring_.push_back(observed);
    if (ring_.size() > window_) ring_.erase(ring_.begin());
    return error;
  }

 private:
  std::size_t window_;
  std::vector<S> ring_;
};

// --- Equivalence ----------------------------------------------------------

TEST(FusedForecasterTest, EwmaBitIdenticalToNaiveOverManySteps) {
  Pcg32 rng(1);
  Forecaster<KarySketch> fused(ForecastModel::kEwma, 0.5);
  NaiveEwma<KarySketch> naive(0.5);
  for (int step = 0; step < 12; ++step) {
    const KarySketch32 obs = observation(rng, /*varied=*/step % 2 == 1);
    const KarySketch* e_fused = fused.step(obs);
    const auto e_naive = naive.step(widened(obs));
    ASSERT_EQ(e_fused == nullptr, !e_naive.has_value()) << step;
    if (e_fused != nullptr) expect_bitwise_equal(*e_fused, *e_naive, step);
  }
}

TEST(FusedForecasterTest, HoltBitIdenticalToNaiveOverManySteps) {
  Pcg32 rng(2);
  Forecaster<KarySketch> fused(ForecastModel::kHolt, 0.5, 0.2);
  NaiveHolt<KarySketch> naive(0.5, 0.2);
  for (int step = 0; step < 12; ++step) {
    const KarySketch32 obs = observation(rng, /*varied=*/step % 3 == 2);
    const KarySketch* e_fused = fused.step(obs);
    const auto e_naive = naive.step(widened(obs));
    ASSERT_EQ(e_fused == nullptr, !e_naive.has_value()) << step;
    if (e_fused != nullptr) expect_bitwise_equal(*e_fused, *e_naive, step);
  }
}

TEST(FusedForecasterTest, MovingAverageMatchesNaiveWindowResum) {
  Pcg32 rng(3);
  const std::size_t window = 4;
  Forecaster<KarySketch> fast(ForecastModel::kMovingAverage, 0.5, 0.2, window);
  NaiveMovingAverage<KarySketch> naive(window);
  for (int step = 0; step < 16; ++step) {
    const KarySketch32 obs = observation(rng, /*varied=*/true);
    const KarySketch* e_fast = fast.step(obs);
    const auto e_naive = naive.step(widened(obs));
    ASSERT_EQ(e_fast == nullptr, !e_naive.has_value()) << step;
    if (e_fast == nullptr) continue;
    const auto cf = e_fast->counters();
    const auto cn = e_naive->counters();
    ASSERT_EQ(cf.size(), cn.size());
    for (std::size_t i = 0; i < cf.size(); ++i) {
      // Incremental sum re-associates; equal to naive up to rounding.
      ASSERT_NEAR(cf[i], cn[i], 1e-9) << "step " << step << " counter " << i;
    }
  }
}

TEST(FusedForecasterTest, MovingAverageBitExactBeforeFirstEviction) {
  // Until the ring wraps, the incremental sum performs the same additions in
  // the same order as the naive re-sum, so errors are bit-identical.
  Pcg32 rng(4);
  const std::size_t window = 6;
  Forecaster<KarySketch> fast(ForecastModel::kMovingAverage, 0.5, 0.2, window);
  NaiveMovingAverage<KarySketch> naive(window);
  for (std::size_t step = 0; step < window; ++step) {
    const KarySketch32 obs = observation(rng, /*varied=*/true);
    const KarySketch* e_fast = fast.step(obs);
    const auto e_naive = naive.step(widened(obs));
    if (e_fast == nullptr) continue;
    expect_bitwise_equal(*e_fast, *e_naive, static_cast<int>(step));
  }
}

TEST(FusedForecasterTest, StepCollectMatchesHeavyBucketsAllModels) {
  Pcg32 rng(5);
  const double threshold = 2.0;
  for (const ForecastModel model :
       {ForecastModel::kEwma, ForecastModel::kMovingAverage,
        ForecastModel::kHolt}) {
    Forecaster<ReversibleSketch> f(model, 0.5, 0.2, 3);
    for (int step = 0; step < 8; ++step) {
      const ReversibleSketch32 obs = rs_observation(rng);
      StageBuckets heavy;
      const ReversibleSketch* error = f.step(obs, threshold, &heavy);
      if (error == nullptr) continue;
      EXPECT_EQ(heavy, heavy_buckets(*error, threshold))
          << "model " << static_cast<int>(model) << " step " << step;
    }
  }
}

// --- Allocation behavior --------------------------------------------------

TEST(FusedForecasterTest, EwmaSteadyStateStepsAllocateNothing) {
  Pcg32 rng(7);
  Forecaster<KarySketch> f(ForecastModel::kEwma, 0.5);
  // Warm up past forecast seeding.
  std::vector<KarySketch32> observations;
  for (int i = 0; i < 8; ++i) observations.push_back(observation(rng));
  f.step(observations[0]);
  f.step(observations[1]);
  {
    AllocGuard guard;
    for (int i = 2; i < 8; ++i) {
      ASSERT_NE(f.step(observations[i]), nullptr);
    }
    EXPECT_EQ(guard.count(), 0u);
  }
}

TEST(FusedForecasterTest, HoltSteadyStateStepsAllocateNothing) {
  Pcg32 rng(8);
  Forecaster<KarySketch> f(ForecastModel::kHolt, 0.5, 0.2);
  std::vector<KarySketch32> observations;
  for (int i = 0; i < 9; ++i) observations.push_back(observation(rng));
  for (int i = 0; i < 3; ++i) f.step(observations[i]);
  {
    AllocGuard guard;
    for (int i = 3; i < 9; ++i) {
      ASSERT_NE(f.step(observations[i]), nullptr);
    }
    EXPECT_EQ(guard.count(), 0u);
  }
}

TEST(FusedForecasterTest, MovingAverageSteadyStateStepsAllocateNothing) {
  Pcg32 rng(9);
  const std::size_t window = 3;
  Forecaster<KarySketch> f(ForecastModel::kMovingAverage, 0.5, 0.2, window);
  std::vector<KarySketch32> observations;
  for (int i = 0; i < 10; ++i) observations.push_back(observation(rng));
  // Fill the ring (+1 so eviction has begun).
  for (std::size_t i = 0; i <= window; ++i) f.step(observations[i]);
  {
    AllocGuard guard;
    for (std::size_t i = window + 1; i < 10; ++i) {
      ASSERT_NE(f.step(observations[i]), nullptr);
    }
    EXPECT_EQ(guard.count(), 0u);
  }
}

}  // namespace
}  // namespace hifind
