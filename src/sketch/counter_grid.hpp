// Counter grid: the storage and linear algebra every sketch shares.
//
// Every sketch HiFIND keeps is a flat array of counters that COMBINE,
// forecasting and the shard merge treat as plain linear algebra (paper
// Sec. 3.1); the sketch types differ only in how a key picks its counters.
// CounterGrid owns what they share — the hugepage-backed counter array, one
// cached sum per stage and the update count — and implements the whole-array
// operations once.
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
// Counters are doubles: recording sketches hold exact integers (all counts
// are far below 2^53) and forecast/error sketches hold fractional EWMA state,
// so one representation serves the whole pipeline, keeping COMBINE closed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/mem_policy.hpp"
#include "sketch/simd_ops.hpp"

namespace hifind {

/// Per-stage heavy-bucket lists (ascending bucket ids) — the format reverse
/// inference consumes.
using StageBuckets = std::vector<std::vector<std::uint32_t>>;

class CounterGrid {
 public:
  /// rows x cols collect region plus `tail` uncollected counters, all zero.
  CounterGrid(std::size_t rows, std::size_t cols, std::size_t tail);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return counters_.size(); }

  bool same_shape(const CounterGrid& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           size() == other.size();
  }

  /// The flat array: collect region, then tail.
  std::span<const double> counters() const { return counters_; }
  /// Raw storage for the record loops and the fused kernels. Writers must
  /// keep the stage sums in step (sums()).
  double* data() { return counters_.data(); }
  const double* data() const { return counters_.data(); }

  /// Counter (row, col) of the collect region.
  double at(std::size_t row, std::size_t col) const {
    return counters_[row * cols_ + col];
  }

  /// Sum of one row of the collect region, maintained incrementally so an
  /// estimate is O(H) rather than O(H*K).
  double stage_sum(std::size_t row) const { return sums_[row]; }
  double* sums() { return sums_.data(); }
  const double* sums() const { return sums_.data(); }

  /// Cumulative number of updates recorded (throughput accounting).
  std::uint64_t update_count() const { return update_count_; }
  void count_updates(std::uint64_t n) { update_count_ += n; }
  void set_update_count(std::uint64_t n) { update_count_ = n; }

  /// this += coeff * other. Throws std::invalid_argument on shape mismatch.
  void accumulate(const CounterGrid& other, double coeff);

  /// this *= coeff.
  void scale(double coeff);

  /// Zeroes counters, stage sums and the update count.
  void clear();

  /// Replaces the counter array and recomputes the stage sums. Throws
  /// std::invalid_argument on a size mismatch.
  void load_counters(std::span<const double> counters);

  /// Destination-reuse COMBINE: this = sum ci*Gi, where Gi = grid_of(*ti),
  /// overwriting this grid in place with no allocation. `this` may itself be
  /// the FIRST term's grid (the in-place reduction case); any later term must
  /// be a distinct grid. Throws std::invalid_argument on an empty list, a
  /// shape mismatch or a later alias.
  template <class T, class GridOf>
  void combine_into(std::span<const std::pair<double, const T*>> terms,
                    GridOf grid_of);

  /// Counter memory in bytes (the recording-path footprint).
  std::size_t memory_bytes() const { return size() * sizeof(double); }
  /// Counter memory if realized with the paper's 32-bit hardware counters.
  std::size_t memory_bytes_hw() const {
    return size() * sizeof(std::uint32_t);
  }

  /// Mean-corrected median estimate of one key: per stage,
  /// (bucket − sum/K) / (1 − 1/K) at flat index index_of(h); the median over
  /// stages. Unbiased and sharply concentrated when K >> heavy keys.
  template <class IndexOf>
  double estimate(IndexOf index_of) const;

  /// Per-row indices of the collect region whose mean-corrected estimate
  /// reaches `threshold`: bucket >= t*(1 - 1/K) + sum/K.
  StageBuckets heavy_buckets(double threshold) const;

  /// Top-N-anomalies cap: keeps each row's `max_per_row` largest buckets
  /// (ties toward the lower index, so the kept set is a deterministic
  /// function of the counters) and restores ascending order. 0 = no cap.
  /// Returns the number of buckets dropped.
  std::size_t apply_top_n(StageBuckets& buckets,
                          std::size_t max_per_row) const;

  /// Best-effort NUMA binding of the counter array (mem::bind_to_node).
  bool bind_to_node(int node);

 private:
  static double median_of(std::span<double> v);

  std::size_t rows_;
  std::size_t cols_;
  mem::CounterVec counters_;  // collect region, then tail; hugepage-backed
  std::vector<double> sums_;  // one per row
  std::uint64_t update_count_{0};
};

/// The linear surface every sketch type exposes, written once over its grid.
/// Derived provides grid() (const and mutable), config() and
/// combinable_with(); shape-and-seed mismatches throw before the grid is
/// touched.
template <class Derived>
class LinearSketch {
 public:
  std::span<const double> counters() const { return self().grid().counters(); }
  std::uint64_t update_count() const { return self().grid().update_count(); }
  std::size_t memory_bytes() const { return self().grid().memory_bytes(); }
  std::size_t memory_bytes_hw() const {
    return self().grid().memory_bytes_hw();
  }

  /// this += coeff * other.
  void accumulate(const Derived& other, double coeff = 1.0) {
    check_combinable(other, "accumulate");
    self().grid().accumulate(other.grid(), coeff);
  }
  void scale(double coeff) { self().grid().scale(coeff); }
  /// Resets every counter to zero, keeping the hash family.
  void clear() { self().grid().clear(); }

  /// Deserialization support: replaces the counter array (stage sums are
  /// recomputed). Throws std::invalid_argument on size mismatch.
  void load_counters(std::span<const double> counters) {
    self().grid().load_counters(counters);
  }

  /// COMBINE(c1,S1,...,cn,Sn) = sum ci*Si as a new sketch.
  static Derived combine(
      std::span<const std::pair<double, const Derived*>> terms) {
    if (terms.empty()) throw std::invalid_argument("combine: no terms");
    Derived out(terms.front().second->config());
    out.combine_into(terms);
    return out;
  }

  /// Destination-reuse COMBINE: this = sum ci*Si in place — no sketch
  /// construction, no allocation. `this` may appear only as the FIRST term;
  /// every term must be combinable_with(*this). The seal-time shard merge
  /// runs on this path so an interval close constructs nothing.
  void combine_into(std::span<const std::pair<double, const Derived*>> terms) {
    for (const auto& term : terms) {
      check_combinable(*term.second, "combine_into");
    }
    self().grid().combine_into(
        terms, [](const Derived& s) -> const CounterGrid& { return s.grid(); });
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  void check_combinable(const Derived& other, const char* what) const {
    if (!self().combinable_with(other)) {
      throw std::invalid_argument(
          std::string(what) + ": sketches have different shape or seed");
    }
  }
};

/// Per-stage heavy-bucket indices of any sketch: the buckets of its grid's
/// collect region whose mean-corrected estimate reaches `threshold` (the
/// compact backend's VALUE counters; nothing for the 2D sketch).
template <class S>
StageBuckets heavy_buckets(const S& sketch, double threshold) {
  return sketch.grid().heavy_buckets(threshold);
}

template <class T, class GridOf>
void CounterGrid::combine_into(
    std::span<const std::pair<double, const T*>> terms, GridOf grid_of) {
  if (terms.empty()) {
    throw std::invalid_argument("CounterGrid::combine_into: no terms");
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const CounterGrid& g = grid_of(*terms[i].second);
    if (!same_shape(g)) {
      throw std::invalid_argument(
          "CounterGrid::combine_into: grids have different shapes");
    }
    if (i > 0 && &g == this) {
      throw std::invalid_argument(
          "CounterGrid::combine_into: destination may only alias term 0");
    }
  }
  // Derived state first, while this grid's own values (it may be term 0)
  // are still readable.
  std::uint64_t updates = 0;
  for (const auto& term : terms) updates += grid_of(*term.second).update_count_;
  for (std::size_t h = 0; h < rows_; ++h) {
    double s = 0.0;
    for (const auto& [coeff, t] : terms) s += coeff * grid_of(*t).sums_[h];
    sums_[h] = s;
  }
  // First term assigns (y = 0*y + c*x is exact and alias-safe for finite
  // counters), the rest accumulate — one pass per term over the reused
  // counter array.
  simd::axpby(data(), grid_of(*terms[0].second).data(), size(), 0.0,
              terms[0].first);
  for (const auto& [coeff, t] : terms.subspan(1)) {
    simd::accumulate(data(), grid_of(*t).data(), size(), coeff);
  }
  update_count_ = updates;
}

template <class IndexOf>
double CounterGrid::estimate(IndexOf index_of) const {
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
    est[h] = (counters_[index_of(h)] - sums_[h] / k) / (1.0 - 1.0 / k);
  }
  return median_of(est);
}

}  // namespace hifind
