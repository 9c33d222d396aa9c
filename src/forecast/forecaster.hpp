// Time-series forecasting in sketch space.
//
// HiFIND's change detection runs entirely on sketches: at each interval the
// observed sketch M_0(t) is compared against a forecast M_f(t) built from
// history, and the *forecast-error sketch* e(t) = M_0(t) - M_f(t) is what
// reverse inference thresholds. Because sketches are linear, any forecast
// model expressible as a linear combination of past observations works
// unchanged — we provide the paper's EWMA (Eq. 1) plus the moving-average and
// Holt linear models evaluated in the sketch change-detection paper (IMC'03).
//
// The detector forecasts its reversible (or compact) sketches and its k-ary
// verification and original-SYN sketches; the 2D sketches are only
// classified, never forecast.
//
// Model state is plain double counter grids (sketch/counter_grid.hpp): it is
// only ever combined linearly, never hashed into, so it carries no hash
// family. Only the error is a full (double) sketch, because reverse
// inference and estimate() read it through the observation's hash family.
// Observations are the bank's int32 recording sketches, each read as
// scale × counter as the kernels stream it (the collector's 1/coverage
// rescale), never copied wide. Each step rolls the state and the error in
// ONE fused pass over the counters (sketch/sketch_kernels.hpp)
// with results bit-identical to the copy/scale/accumulate formulation for
// EWMA and Holt, and allocates nothing in steady state. With a `heavy` list
// the same pass also collects the per-stage heavy buckets reverse inference
// starts from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sketch/sketch_kernels.hpp"

namespace hifind {

/// Forecast model selector for configs.
enum class ForecastModel : std::uint8_t { kEwma, kMovingAverage, kHolt };

/// One forecaster per sketch: feed one observation per interval, receive the
/// forecast-error sketch once the model has enough history. SketchT is the
/// double-counter error sketch type (KarySketch, ReversibleSketch,
/// InvertibleSketch, ...); observations are any int32 recording sketch with
/// the same config type.
///
///   EWMA (paper Eq. 1): M_f(t) = alpha*M_0(t-1) + (1-alpha)*M_f(t-1), seeded
///     with M_f(2) = M_0(1); errors from the second interval on.
///   Moving average: the mean of the last `window` observations, kept as an
///     incremental running sum (add newest, subtract evicted) — O(1) passes a
///     step, equal to the re-summed window up to rounding; errors from the
///     second interval on.
///   Holt: level and trend (useful when baseline traffic ramps, which plain
///     EWMA would flag as persistent error); trend = M_0(2) - M_0(1), so
///     errors start at the third interval (the IMC'03 convention).
template <class SketchT>
class Forecaster {
 public:
  /// Validates only the selected model's parameters: alpha in (0,1] for
  /// EWMA, alpha and beta in (0,1] for Holt, window >= 1 for the moving
  /// average. Throws std::invalid_argument otherwise.
  explicit Forecaster(ForecastModel model, double alpha = 0.5,
                      double beta = 0.2, std::size_t window = 5)
      : model_(model), alpha_(alpha), beta_(beta), window_(window) {
    switch (model) {
      case ForecastModel::kEwma:
        if (alpha <= 0.0 || alpha > 1.0) {
          throw std::invalid_argument("EWMA alpha must be in (0,1]");
        }
        return;
      case ForecastModel::kMovingAverage:
        if (window == 0) {
          throw std::invalid_argument("moving-average window must be >= 1");
        }
        state_.reserve(window + 1);  // sum + ring: no growth in steady state
        return;
      case ForecastModel::kHolt:
        if (alpha <= 0.0 || alpha > 1.0 || beta <= 0.0 || beta > 1.0) {
          throw std::invalid_argument("Holt alpha/beta must be in (0,1]");
        }
        return;
    }
    throw std::invalid_argument("unknown forecast model");
  }

  /// Consumes the interval's observed sketch; returns e(t) = M_0(t) - M_f(t)
  /// as a pointer into forecaster-owned storage (valid until the next step
  /// or reset), or nullptr while the model is still warming up. With
  /// `heavy`, a non-warm-up step also fills heavy[h] with the ascending
  /// bucket ids of stage h whose error reaches the heavy_buckets() cut for
  /// `threshold` — exactly heavy_buckets(error, threshold); a sketch without
  /// stage sums (TwoDSketch) leaves it empty. The observation is read as
  /// `scale` × counter (one rounding; exact at 1). Throws
  /// std::invalid_argument if `observed` has another shape or seed than
  /// earlier observations.
  template <class Obs>
  const SketchT* step(const Obs& observed, double threshold = 0.0,
                      StageBuckets* heavy = nullptr, double scale = 1.0) {
    static_assert(std::is_same_v<typename Obs::counter_type, std::int32_t>,
                  "observations are int32 recording sketches");
    if (!error_) {
      error_.emplace(observed.config());
    } else if (!(error_->config() == observed.config())) {
      throw std::invalid_argument(
          "Forecaster::step: observation has a different shape or seed");
    }
    const CounterGrid32& obs = observed.grid();
    CounterGrid& err = error_->grid();
    switch (model_) {
      case ForecastModel::kEwma:
        // state_ = {forecast}
        if (state_.empty()) {
          state_.push_back(CounterGrid::widened(obs, scale));  // M_f(2)=M_0(1)
          return nullptr;
        }
        kernels::ewma_roll(state_[0], obs, scale, err, alpha_, threshold,
                           heavy);
        return &*error_;
      case ForecastModel::kHolt:
        // state_ = {level, trend}
        if (state_.empty()) {
          state_.push_back(CounterGrid::widened(obs, scale));
          return nullptr;
        }
        if (state_.size() == 1) {
          state_.push_back(CounterGrid::widened(obs, scale));
          state_[1].accumulate(state_[0], -1.0);
          state_[0].assign_scaled(obs, scale);
          return nullptr;
        }
        kernels::holt_roll(state_[0], state_[1], obs, scale, err, alpha_,
                           beta_, threshold, heavy);
        return &*error_;
      case ForecastModel::kMovingAverage:
        return ma_step(obs, scale, err, threshold, heavy);
    }
    return nullptr;
  }

  /// Discards history (e.g. when a trace restarts): the next step is a
  /// warm-up again.
  void reset() {
    error_.reset();
    state_.clear();
    head_ = 0;
  }

 private:
  // state_ = {running sum, ring of the last min(window, t) observations}
  const SketchT* ma_step(const CounterGrid32& obs, double scale,
                         CounterGrid& err, double threshold,
                         StageBuckets* heavy) {
    const SketchT* out = nullptr;
    if (state_.empty()) {
      state_.push_back(CounterGrid::widened(obs, scale));
    } else {
      const double inv = 1.0 / static_cast<double>(state_.size() - 1);
      kernels::ma_roll(state_[0], obs, scale, err, inv, threshold, heavy);
      out = &*error_;
      state_[0].add_scaled(obs, scale);
    }
    if (state_.size() - 1 < window_) {
      state_.push_back(CounterGrid::widened(obs, scale));
    } else {
      CounterGrid& oldest = state_[1 + head_];
      state_[0].accumulate(oldest, -1.0);
      oldest.assign_scaled(obs, scale);
      head_ = (head_ + 1) % window_;
    }
    return out;
  }

  ForecastModel model_;
  double alpha_;
  double beta_;
  std::size_t window_;
  std::optional<SketchT> error_;    // built from the first observation
  std::vector<CounterGrid> state_;  // model state, layout per model above
  std::size_t head_{0};             // moving average: oldest ring slot
};

}  // namespace hifind
