// Fused sketch-level kernels for the detection epoch.
//
// Forecasting in sketch space is linear algebra over the flat counter
// arrays, and the seed implementation spelled each forecaster step as a
// sequence of whole-array passes (copy, scale, accumulate) plus a separate
// heavy-bucket threshold scan per stage. These kernels collapse each step
// into ONE pass over the counters (dispatched to simd_ops), maintain the
// cached per-stage sums analytically with the exact scalar expressions the
// multi-pass sequence produced, and can collect the per-stage heavy-bucket
// candidate lists during that same pass — so reverse inference starts with
// its `heavy_buckets` input already in hand.
//
// Bit-identity: for EWMA and Holt, every per-element and per-stage-sum
// expression is operation-for-operation the one the unfused
// copy/scale/accumulate sequence evaluated, so fused output is
// bit-identical to the seed path (tests assert this). The moving-average
// forecaster's *incremental* running sum is the one deliberate deviation —
// it re-associates the window sum — and is equivalence-tested under
// tolerance instead.
//
// The kernels run on CounterGrids (sketch_kernels.cpp). The sketch-level
// templates below check shape AND seed (combinable_with) and hand over
// grid(), so they work for every sketch type, the InvertibleSketch backend
// wrapper included. Heavy collection scans the grid's collect region; a
// grid without one (the 2D sketch) rolls plainly and leaves `heavy` empty,
// and a tail past the region (the compact backend's key-bit counters) takes
// the identical per-element roll without the scan.
#pragma once

#include <stdexcept>
#include <string>

#include "sketch/counter_grid.hpp"

namespace hifind::kernels {

/// Fused EWMA step: err = obs - fc; fc = (1-alpha)*fc + alpha*obs, one pass.
/// Bit-identical to { err = copy(obs); err.accumulate(fc, -1);
/// fc.scale(1-alpha); fc.accumulate(obs, alpha); }. With `heavy`, heavy[h]
/// receives exactly err.heavy_buckets(threshold)[h].
void ewma_roll(CounterGrid& fc, const CounterGrid& obs, CounterGrid& err,
               double alpha, double threshold, StageBuckets* heavy);

/// Fused Holt step: err = obs - (level+trend); level/trend rolled, one pass.
/// Bit-identical to the unfused copy/scale/accumulate sequence.
void holt_roll(CounterGrid& level, CounterGrid& trend, const CounterGrid& obs,
               CounterGrid& err, double alpha, double beta, double threshold,
               StageBuckets* heavy);

/// Fused moving-average error: err = obs - inv_n * sum, one pass. `sum` is
/// the caller-maintained running window sum; this kernel does not modify it.
void ma_roll(const CounterGrid& sum, const CounterGrid& obs, CounterGrid& err,
             double inv_n, double threshold, StageBuckets* heavy);

namespace detail {

template <class S>
void check_combinable(const S& a, const S& b, const char* what) {
  if (!a.combinable_with(b)) {
    throw std::invalid_argument(std::string("sketch kernel ") + what +
                                ": sketches have different shape or seed");
  }
}

}  // namespace detail

/// dst <- value-copy of src, reusing dst's storage (shapes match, which
/// check_combinable guarantees).
template <class S>
void assign(S& dst, const S& src) {
  detail::check_combinable(dst, src, "assign");
  dst.grid() = src.grid();
}

template <class S>
void ewma_roll(S& fc, const S& obs, S& err, double alpha) {
  detail::check_combinable(fc, obs, "ewma_roll");
  detail::check_combinable(err, obs, "ewma_roll");
  ewma_roll(fc.grid(), obs.grid(), err.grid(), alpha, 0.0, nullptr);
}

/// ewma_roll + per-stage heavy-bucket collection in the same counter pass.
template <class S>
void ewma_roll_collect(S& fc, const S& obs, S& err, double alpha,
                       double threshold, StageBuckets& heavy) {
  detail::check_combinable(fc, obs, "ewma_roll_collect");
  detail::check_combinable(err, obs, "ewma_roll_collect");
  ewma_roll(fc.grid(), obs.grid(), err.grid(), alpha, threshold, &heavy);
}

template <class S>
void holt_roll(S& level, S& trend, const S& obs, S& err, double alpha,
               double beta) {
  detail::check_combinable(level, obs, "holt_roll");
  detail::check_combinable(trend, obs, "holt_roll");
  detail::check_combinable(err, obs, "holt_roll");
  holt_roll(level.grid(), trend.grid(), obs.grid(), err.grid(), alpha, beta,
            0.0, nullptr);
}

/// holt_roll + heavy-bucket collection (see ewma_roll_collect).
template <class S>
void holt_roll_collect(S& level, S& trend, const S& obs, S& err, double alpha,
                       double beta, double threshold, StageBuckets& heavy) {
  detail::check_combinable(level, obs, "holt_roll_collect");
  detail::check_combinable(trend, obs, "holt_roll_collect");
  detail::check_combinable(err, obs, "holt_roll_collect");
  holt_roll(level.grid(), trend.grid(), obs.grid(), err.grid(), alpha, beta,
            threshold, &heavy);
}

template <class S>
void ma_roll(const S& sum, const S& obs, S& err, double inv_n) {
  detail::check_combinable(sum, obs, "ma_roll");
  detail::check_combinable(err, obs, "ma_roll");
  ma_roll(sum.grid(), obs.grid(), err.grid(), inv_n, 0.0, nullptr);
}

/// ma_roll + heavy-bucket collection (see ewma_roll_collect).
template <class S>
void ma_roll_collect(const S& sum, const S& obs, S& err, double inv_n,
                     double threshold, StageBuckets& heavy) {
  detail::check_combinable(sum, obs, "ma_roll_collect");
  detail::check_combinable(err, obs, "ma_roll_collect");
  ma_roll(sum.grid(), obs.grid(), err.grid(), inv_n, threshold, &heavy);
}

}  // namespace hifind::kernels
