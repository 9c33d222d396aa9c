// Fused counter-grid kernels for the detection epoch.
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
// Observations are the bank's int32 recording grids; every counter and stage
// sum is read as scale × value (the simd rolls widen as they stream), so a
// forecaster rolls straight off the 4-byte counters, and the collector's
// 1/coverage rescale costs no bank copy.
//
// The kernels run on CounterGrids, so they serve every sketch type, the
// InvertibleSketch backend wrapper included; they check shapes, and the
// caller (forecast/forecaster.hpp) checks that the sketches share a seed.
// Heavy collection scans the grid's collect region; a grid without one (the
// 2D sketch) rolls plainly and leaves `heavy` empty, and a tail past the
// region (the compact backend's key-bit counters) takes the identical
// per-element roll without the scan.
#pragma once

#include "sketch/counter_grid.hpp"

namespace hifind::kernels {

/// Fused EWMA step: err = o - fc; fc = (1-alpha)*fc + alpha*o, one pass,
/// with o = scale*obs. Bit-identical to { err = o; err.accumulate(fc, -1);
/// fc *= (1-alpha); fc.accumulate(o, alpha); } over a double copy o. With
/// `heavy`, heavy[h] receives exactly err.heavy_buckets(threshold)[h].
void ewma_roll(CounterGrid& fc, const CounterGrid32& obs, double scale,
               CounterGrid& err, double alpha, double threshold,
               StageBuckets* heavy);

/// Fused Holt step: err = o - (level+trend); level/trend rolled, one pass.
/// Bit-identical to the unfused copy/scale/accumulate sequence.
void holt_roll(CounterGrid& level, CounterGrid& trend,
               const CounterGrid32& obs, double scale, CounterGrid& err,
               double alpha, double beta, double threshold,
               StageBuckets* heavy);

/// Fused moving-average error: err = o - inv_n * sum, one pass. `sum` is
/// the caller-maintained running window sum; this kernel does not modify it.
void ma_roll(const CounterGrid& sum, const CounterGrid32& obs, double scale,
             CounterGrid& err, double inv_n, double threshold,
             StageBuckets* heavy);

}  // namespace hifind::kernels
