#include "sketch/counter_grid.hpp"

#include <algorithm>

namespace hifind {

CounterGrid::CounterGrid(std::size_t rows, std::size_t cols, std::size_t tail)
    : rows_(rows), cols_(cols) {
  counters_.assign(rows * cols + tail, 0.0);
  sums_.assign(rows, 0.0);
}

void CounterGrid::accumulate(const CounterGrid& other, double coeff) {
  if (!same_shape(other)) {
    throw std::invalid_argument(
        "CounterGrid::accumulate: grids have different shapes");
  }
  simd::accumulate(data(), other.data(), size(), coeff);
  for (std::size_t h = 0; h < rows_; ++h) sums_[h] += coeff * other.sums_[h];
}

void CounterGrid::scale(double coeff) {
  simd::scale(data(), size(), coeff);
  for (auto& s : sums_) s *= coeff;
}

void CounterGrid::clear() {
  std::fill(counters_.begin(), counters_.end(), 0.0);
  std::fill(sums_.begin(), sums_.end(), 0.0);
  update_count_ = 0;
}

void CounterGrid::load_counters(std::span<const double> counters) {
  if (counters.size() != size()) {
    throw std::invalid_argument("CounterGrid::load_counters: size mismatch");
  }
  std::copy(counters.begin(), counters.end(), counters_.begin());
  for (std::size_t h = 0; h < rows_; ++h) {
    double sum = 0.0;
    for (std::size_t b = 0; b < cols_; ++b) sum += counters_[h * cols_ + b];
    sums_[h] = sum;
  }
}

StageBuckets CounterGrid::heavy_buckets(double threshold) const {
  const double k = static_cast<double>(cols_);
  StageBuckets out(rows_);
  for (std::size_t h = 0; h < rows_; ++h) {
    // estimate >= t  <=>  bucket >= t*(1 - 1/K) + sum/K
    const double cut = threshold * (1.0 - 1.0 / k) + sums_[h] / k;
    for (std::size_t b = 0; b < cols_; ++b) {
      if (at(h, b) >= cut) out[h].push_back(static_cast<std::uint32_t>(b));
    }
  }
  return out;
}

std::size_t CounterGrid::apply_top_n(StageBuckets& buckets,
                                     std::size_t max_per_row) const {
  if (max_per_row == 0) return 0;
  std::size_t dropped = 0;
  for (std::size_t h = 0; h < buckets.size(); ++h) {
    auto& row = buckets[h];
    if (row.size() <= max_per_row) continue;
    // partial_sort alone leaves equal-valued buckets in unspecified order;
    // the index tie-break makes the kept set deterministic.
    std::partial_sort(row.begin(),
                      row.begin() + static_cast<std::ptrdiff_t>(max_per_row),
                      row.end(), [&](std::uint32_t a, std::uint32_t b) {
                        const double va = at(h, a);
                        const double vb = at(h, b);
                        return va > vb || (va == vb && a < b);
                      });
    dropped += row.size() - max_per_row;
    row.resize(max_per_row);
    std::sort(row.begin(), row.end());
  }
  return dropped;
}

bool CounterGrid::bind_to_node(int node) {
  return mem::bind_to_node(data(), memory_bytes(), node);
}

double CounterGrid::median_of(std::span<double> v) {
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (n % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

}  // namespace hifind
