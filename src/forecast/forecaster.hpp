// Time-series forecasting in sketch space.
//
// HiFIND's change detection runs entirely on sketches: at each interval the
// observed sketch M_0(t) is compared against a forecast M_f(t) built from
// history, and the *forecast-error sketch* e(t) = M_0(t) - M_f(t) is what
// reverse inference thresholds. The forecast is the paper's EWMA (Eq. 1);
// because sketches are linear, it is evaluated directly on the counters.
//
// The detector forecasts its reversible (or compact) sketches and its k-ary
// verification and original-SYN sketches; the 2D sketches are only
// classified, never forecast.
//
// The forecast and the error are plain double counter grids
// (sketch/counter_grid.hpp): linear combinations of recorded sketches need
// no hash family. Reverse inference and estimate() read the error through
// the observed sketch's (sketch.estimate(key, error)). Observations are the
// bank's int32 recording sketches, each read as scale × counter as the
// kernel streams it (the collector's 1/coverage rescale), never copied
// wide. Each step rolls the forecast and the error in ONE fused pass over
// the counters (sketch/sketch_kernels.hpp) with results bit-identical to
// the copy/scale/accumulate formulation, and allocates nothing in steady
// state. With a `heavy` list the same pass also collects the per-stage
// heavy buckets reverse inference starts from.
#pragma once

#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sketch/sketch_kernels.hpp"

namespace hifind {

/// One forecaster per recorded sketch: feed one observation per interval,
/// receive the forecast-error grid once the model has history. Obs is the
/// observed sketch type (KarySketch, InvertibleSketch, ...); the error is
/// read through the hashing of the observation it came from.
///
///   EWMA (paper Eq. 1): M_f(t) = alpha*M_0(t-1) + (1-alpha)*M_f(t-1), seeded
///     with M_f(2) = M_0(1); errors from the second interval on.
template <class Obs>
class Forecaster {
  using Config = std::remove_cvref_t<decltype(std::declval<Obs>().config())>;

 public:
  /// Throws std::invalid_argument unless alpha is in (0,1].
  explicit Forecaster(double alpha) : alpha_(alpha) {
    if (alpha <= 0.0 || alpha > 1.0) {
      throw std::invalid_argument("EWMA alpha must be in (0,1]");
    }
  }

  /// Consumes the interval's observed sketch; returns e(t) = M_0(t) - M_f(t)
  /// as a pointer to a forecaster-owned grid of the observation's shape
  /// (valid until the next step or reset), or nullptr on the first (warm-up)
  /// observation. With `heavy`, a non-warm-up step also fills heavy[h] with
  /// the ascending bucket ids of stage h whose error reaches the
  /// CounterGrid::heavy_buckets() cut for `threshold` — exactly
  /// error.heavy_buckets(threshold); a sketch without stage sums
  /// (TwoDSketch) leaves it empty. The observation is read as `scale` ×
  /// counter (one rounding; exact at 1). Throws std::invalid_argument if
  /// `observed` has another shape or seed than earlier observations.
  const CounterGrid* step(const Obs& observed, double threshold = 0.0,
                          StageBuckets* heavy = nullptr, double scale = 1.0) {
    if (!config_) {
      config_.emplace(observed.config());
    } else if (!(*config_ == observed.config())) {
      throw std::invalid_argument(
          "Forecaster::step: observation has a different shape or seed");
    }
    const CounterGrid32& obs = observed.grid();
    if (!forecast_) {
      forecast_.emplace(CounterGrid::widened(obs, scale));
      error_.emplace(obs.rows(), obs.cols(),
                     obs.size() - obs.rows() * obs.cols());
      return nullptr;  // M_f(2) = M_0(1)
    }
    kernels::ewma_roll(*forecast_, obs, scale, *error_, alpha_, threshold,
                       heavy);
    return &*error_;
  }

  /// Discards history (e.g. when a trace restarts): the next step is a
  /// warm-up again.
  void reset() {
    config_.reset();
    forecast_.reset();
    error_.reset();
  }

 private:
  double alpha_;
  std::optional<Config> config_;         // the first observation's
  std::optional<CounterGrid> forecast_;  // M_f, after the first observation
  std::optional<CounterGrid> error_;     // e(t), same shape
};

}  // namespace hifind
