// Equivalence and allocation tests for the fused, allocation-free EWMA
// forecaster step:
//  * step() output is BIT-IDENTICAL to the seed's copy/scale/accumulate
//    formulation over a double copy of each int32 observation, step after
//    step;
//  * a step with a heavy list hands back exactly error.heavy_buckets(
//    threshold);
//  * steady-state steps perform ZERO heap allocations (counting global
//    operator new).
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
KarySketch observation(Pcg32& rng, bool varied = false) {
  KarySketch s(small_kary());
  for (int i = 0; i < 150; ++i) {
    s.update(rng.next64(),
             varied ? static_cast<std::int32_t>(rng.next() % 9) - 3 : 1);
  }
  return s;
}

ReversibleSketch rs_observation(Pcg32& rng) {
  ReversibleSketch s(ReversibleSketchConfig{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 9});
  for (int i = 0; i < 150; ++i) s.update(rng.next(), 1);
  return s;
}

/// The observation as a double grid: what the naive references read.
CounterGrid widened(const KarySketch& obs) {
  return CounterGrid::widened(obs.grid(), 1.0);
}

void expect_bitwise_equal(const CounterGrid& a, const CounterGrid& b,
                          int step) {
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i], cb[i]) << "step " << step << " counter " << i;
  }
  for (std::size_t h = 0; h < a.rows(); ++h) {
    ASSERT_EQ(a.stage_sum(h), b.stage_sum(h)) << "step " << step << " stage "
                                              << h;
  }
}

// --- Naive (seed-formulation) reference ----------------------------------
// Whole-grid passes over double grids, per element: y *= c and y += c*x
// (counters and stage sums alike).

void scale(CounterGrid& g, double c) {
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] *= c;
  for (std::size_t h = 0; h < g.rows(); ++h) g.sums()[h] *= c;
}

class NaiveEwma {
 public:
  explicit NaiveEwma(double alpha) : alpha_(alpha) {}
  std::optional<CounterGrid> step(const CounterGrid& observed) {
    if (!forecast_) {
      forecast_.emplace(observed);
      return std::nullopt;
    }
    CounterGrid error(observed);
    error.accumulate(*forecast_, -1.0);
    scale(*forecast_, 1.0 - alpha_);
    forecast_->accumulate(observed, alpha_);
    return error;
  }

 private:
  double alpha_;
  std::optional<CounterGrid> forecast_;
};

// --- Equivalence ----------------------------------------------------------

TEST(FusedForecasterTest, EwmaBitIdenticalToNaiveOverManySteps) {
  Pcg32 rng(1);
  Forecaster<KarySketch> fused(0.5);
  NaiveEwma naive(0.5);
  for (int step = 0; step < 12; ++step) {
    const KarySketch obs = observation(rng, /*varied=*/step % 2 == 1);
    const CounterGrid* e_fused = fused.step(obs);
    const auto e_naive = naive.step(widened(obs));
    ASSERT_EQ(e_fused == nullptr, !e_naive.has_value()) << step;
    if (e_fused != nullptr) expect_bitwise_equal(*e_fused, *e_naive, step);
  }
}

TEST(FusedForecasterTest, StepCollectMatchesHeavyBucketsAllModels) {
  Pcg32 rng(5);
  const double threshold = 2.0;
  for (const double alpha : {0.5, 0.3, 1.0}) {
    Forecaster<ReversibleSketch> f(alpha);
    for (int step = 0; step < 8; ++step) {
      const ReversibleSketch obs = rs_observation(rng);
      StageBuckets heavy;
      const CounterGrid* error = f.step(obs, threshold, &heavy);
      if (error == nullptr) continue;
      EXPECT_EQ(heavy, error->heavy_buckets(threshold))
          << "alpha " << alpha << " step " << step;
    }
  }
}

// --- Allocation behavior --------------------------------------------------

TEST(FusedForecasterTest, EwmaSteadyStateStepsAllocateNothing) {
  Pcg32 rng(7);
  Forecaster<KarySketch> f(0.5);
  // Warm up past forecast seeding.
  std::vector<KarySketch> observations;
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

}  // namespace
}  // namespace hifind
