// Counter grid: the storage and linear algebra every sketch shares.
//
// Every sketch HiFIND keeps is a flat array of counters that COMBINE,
// forecasting and the shard merge treat as plain linear algebra (paper
// Sec. 3.1); the sketch types differ only in how a key picks its counters.
// CounterGrid owns what they share — the hugepage-backed counter array and
// one cached sum per stage — and implements the whole-array operations once.
// There is one sum: accumulate(other), a unit-weight add of a grid of the
// same shape. COMBINE across routers and the seal-time shard merge are both
// SketchBank::merge_shards, which copies its first term's grids (copy
// assignment) and accumulates the rest; a sketch itself has no linear
// surface beyond its grid().
//
// Shape: a rows x cols COLLECT region, stage-major (stage h owns
// [h*cols, (h+1)*cols)), followed by an uncollected TAIL:
//   k-ary and reversible sketches   rows = H, cols = K, no tail
//   compact invertible sketch       rows = H, cols = K, tail = key-bit counters
//   2D sketch                       rows = 0 (no stage sums), all tail
// Stage sums cover the collect region only: they are what the mean-corrected
// estimator and the heavy-bucket cut read. The tail rolls along under the
// same whole-array operations.
//
// Counter type: a grid holds double or int32 counters (BasicCounterGrid<C>).
// Everything the record path adds is an integer (SYN +1, SYN/ACK -1, shed
// weights 2^k), so every sketch records into int32 counters — the paper's
// 4-byte counters (Sec. 5.1) — added modulo 2^32 with unsigned arithmetic:
// no signed-overflow UB, and COMBINE and the shard merge, which only ever
// add grids at unit weight, are exact integer adds in any order. A counter
// is read as its int32 value widened to double, which is the true count
// whenever the interval's sum of |delta| is at most INT32_MAX (SketchBank
// tracks that bound). The detector's state — forecasts, errors, the
// lifetime SYN/ACK history — is double grids with no hash family: a sketch
// reads a double grid of its shape through its own (estimate(key, grid)).
// The double grid alone keeps a weighted accumulate, the unfused reference
// the fused EWMA step (sketch/sketch_kernels.hpp) is tested against.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/mem_policy.hpp"
#include "sketch/simd_ops.hpp"

namespace hifind {

/// Per-stage heavy-bucket lists (ascending bucket ids) — the format reverse
/// inference consumes.
using StageBuckets = std::vector<std::vector<std::uint32_t>>;

/// Counter arithmetic shared by the grids and the record loops.
namespace counter {

/// A counter's value as the detector reads it.
inline double widen(double c) { return c; }
inline double widen(std::int32_t c) { return static_cast<double>(c); }

/// c += d: IEEE for double, modulo 2^32 for int32.
inline void add(double& c, double d) { c += d; }
inline void add(std::int32_t& c, std::int32_t d) {
  c = static_cast<std::int32_t>(static_cast<std::uint32_t>(c) +
                                static_cast<std::uint32_t>(d));
}

/// narrow() of a value outside int32 range: reduced modulo 2^32.
std::int32_t narrow_wide(double d);

/// An integral double as an int32 counter delta, modulo 2^32 (a fractional
/// part is truncated; callers admit integral weights only).
inline std::int32_t narrow(double d) {
  return std::fabs(d) < 2147483648.0 ? static_cast<std::int32_t>(d)
                                     : narrow_wide(d);
}

/// y += x over n counters: IEEE for double, modulo 2^32 for int32.
void add(double* y, const double* x, std::size_t n);
void add(std::int32_t* y, const std::int32_t* x, std::size_t n);

}  // namespace counter

template <class C>
class BasicCounterGrid {
  static_assert(std::is_same_v<C, double> || std::is_same_v<C, std::int32_t>,
                "counters are double or int32");

 public:
  using value_type = C;

  /// rows x cols collect region plus `tail` uncollected counters, all zero.
  BasicCounterGrid(std::size_t rows, std::size_t cols, std::size_t tail);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return counters_.size(); }

  template <class D>
  bool same_shape(const BasicCounterGrid<D>& other) const {
    return rows_ == other.rows() && cols_ == other.cols() &&
           size() == other.size();
  }

  /// The flat array: collect region, then tail.
  std::span<const C> counters() const { return counters_; }
  /// Raw storage for the record loops and the fused kernels. Writers must
  /// keep the stage sums in step (sums()).
  C* data() { return counters_.data(); }
  const C* data() const { return counters_.data(); }

  /// Counter (row, col) of the collect region.
  double at(std::size_t row, std::size_t col) const {
    return counter::widen(counters_[row * cols_ + col]);
  }

  /// Sum of one row of the collect region, maintained incrementally so an
  /// estimate is O(H) rather than O(H*K).
  double stage_sum(std::size_t row) const { return counter::widen(sums_[row]); }
  C* sums() { return sums_.data(); }
  const C* sums() const { return sums_.data(); }

  /// this += other, counters and stage sums: the one unit-weight sum
  /// (COMBINE, the shard merge). Throws std::invalid_argument on shape
  /// mismatch.
  void accumulate(const BasicCounterGrid& other);

  /// this += coeff * other, a plain scalar loop: the unfused reference of
  /// the fused EWMA step. Double grids only.
  void accumulate(const BasicCounterGrid& other, double coeff)
    requires std::is_same_v<C, double>;

  /// this += scale * src, every int32 counter and stage sum read as
  /// scale * widen(x): the detector's lifetime-history fold
  /// (scale 1, exact while the sums stay below 2^53). Throws
  /// std::invalid_argument on shape mismatch. Double grids only.
  void add_widened(const BasicCounterGrid<std::int32_t>& src,
                   double scale = 1.0)
    requires std::is_same_v<C, double>;

  /// Zeroes counters and stage sums.
  void clear();

  /// Replaces the counter array and recomputes the stage sums. Throws
  /// std::invalid_argument on a size mismatch.
  void load_counters(std::span<const C> counters);

  /// Counter memory in bytes (the recording-path footprint).
  std::size_t memory_bytes() const { return size() * sizeof(C); }

  /// Mean-corrected median estimate of one key: per stage,
  /// (bucket − sum/K) / (1 − 1/K) at flat index index_of(h); the median over
  /// stages. Unbiased and sharply concentrated when K >> heavy keys. Every
  /// counter and stage sum is read as scale × value (one rounding; exact at
  /// the default scale 1).
  template <class IndexOf>
  double estimate(IndexOf index_of, double scale = 1.0) const;

  /// Per-row indices of the collect region whose mean-corrected estimate
  /// reaches `threshold`: bucket >= t*(1 - 1/K) + sum/K.
  StageBuckets heavy_buckets(double threshold) const;

  /// Top-N-anomalies cap: keeps each row's `max_per_row` largest buckets
  /// (ties toward the lower index, so the kept set is a deterministic
  /// function of the counters) and restores ascending order. 0 = no cap.
  /// Returns the number of buckets dropped.
  std::size_t apply_top_n(StageBuckets& buckets,
                          std::size_t max_per_row) const;

  /// A double grid of src's shape holding scale * src (add_widened onto
  /// zeros): the forecast's seed.
  static BasicCounterGrid widened(const BasicCounterGrid<std::int32_t>& src,
                                  double scale)
    requires std::is_same_v<C, double>;

 private:
  static double median_of(std::span<double> v);
  void check_shape(std::size_t rows, std::size_t cols, std::size_t size,
                   const char* what) const;

  std::size_t rows_;
  std::size_t cols_;
  mem::CounterVec<C> counters_;  // collect region, then tail; hugepage-backed
  std::vector<C> sums_;          // one per row
};

/// Detector state: forecasts, forecast errors, the lifetime history.
using CounterGrid = BasicCounterGrid<double>;
/// Recording counters: every sketch's own grid.
using CounterGrid32 = BasicCounterGrid<std::int32_t>;

extern template class BasicCounterGrid<double>;
extern template class BasicCounterGrid<std::int32_t>;

template <class C>
template <class IndexOf>
double BasicCounterGrid<C>::estimate(IndexOf index_of, double scale) const {
  // Fixed scratch for every paper shape: estimate() sits on the detection
  // inner loop (every candidate the inference engine screens).
  constexpr std::size_t kStackRows = 16;
  std::array<double, kStackRows> stack;
  std::vector<double> heap;
  std::span<double> est;
  if (rows_ <= kStackRows) {
    est = std::span<double>(stack.data(), rows_);
  } else {
    heap.resize(rows_);
    est = heap;
  }
  const double k = static_cast<double>(cols_);
  for (std::size_t h = 0; h < rows_; ++h) {
    const double bucket = scale * counter::widen(counters_[index_of(h)]);
    const double sum = scale * counter::widen(sums_[h]);
    est[h] = (bucket - sum / k) / (1.0 - 1.0 / k);
  }
  return median_of(est);
}

template <class C>
BasicCounterGrid<C> BasicCounterGrid<C>::widened(
    const BasicCounterGrid<std::int32_t>& src, double scale)
  requires std::is_same_v<C, double>
{
  BasicCounterGrid out(src.rows(), src.cols(),
                       src.size() - src.rows() * src.cols());
  out.add_widened(src, scale);
  return out;
}

template <class C>
void BasicCounterGrid<C>::add_widened(
    const BasicCounterGrid<std::int32_t>& src, double scale)
  requires std::is_same_v<C, double>
{
  check_shape(src.rows(), src.cols(), src.size(), "add_widened");
  const std::int32_t* x = src.data();
  for (std::size_t i = 0; i < size(); ++i) {
    counters_[i] += scale * counter::widen(x[i]);
  }
  for (std::size_t h = 0; h < rows_; ++h) sums_[h] += scale * src.stage_sum(h);
}

}  // namespace hifind
