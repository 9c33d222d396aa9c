#include "sketch/counter_grid.hpp"

#include <algorithm>
#include <cmath>

namespace hifind {
namespace counter {

std::int32_t narrow_wide(double d) {
  // Reduce modulo 2^32 first (fmod is exact), so the wrapped counter is
  // what unsigned recording of d would leave.
  const double r = std::fmod(d, 4294967296.0);
  if (std::isnan(r)) return 0;
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::int64_t>(r)));
}

void add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void add(std::int32_t* y, const std::int32_t* x, std::size_t n) {
  // Unsigned lanes: the wrap is defined, and the loop (the shard merge) is
  // a plain vectorizable add.
  auto* uy = reinterpret_cast<std::uint32_t*>(y);
  const auto* ux = reinterpret_cast<const std::uint32_t*>(x);
  for (std::size_t i = 0; i < n; ++i) uy[i] += ux[i];
}

}  // namespace counter

template <class C>
BasicCounterGrid<C>::BasicCounterGrid(std::size_t rows, std::size_t cols,
                                      std::size_t tail)
    : rows_(rows), cols_(cols) {
  counters_.assign(rows * cols + tail, C{0});
  sums_.assign(rows, C{0});
}

template <class C>
void BasicCounterGrid<C>::check_shape(std::size_t rows, std::size_t cols,
                                      std::size_t size,
                                      const char* what) const {
  if (rows_ != rows || cols_ != cols || this->size() != size) {
    throw std::invalid_argument(std::string("CounterGrid::") + what +
                                ": grids have different shapes");
  }
}

template <class C>
void BasicCounterGrid<C>::accumulate(const BasicCounterGrid& other) {
  check_shape(other.rows_, other.cols_, other.size(), "accumulate");
  counter::add(data(), other.data(), size());
  for (std::size_t h = 0; h < rows_; ++h) {
    counter::add(sums_[h], other.sums_[h]);
  }
}

template <class C>
void BasicCounterGrid<C>::accumulate(const BasicCounterGrid& other,
                                     double coeff)
  requires std::is_same_v<C, double>
{
  check_shape(other.rows_, other.cols_, other.size(), "accumulate");
  double* y = data();
  const double* x = other.data();
  for (std::size_t i = 0; i < size(); ++i) y[i] += coeff * x[i];
  for (std::size_t h = 0; h < rows_; ++h) sums_[h] += coeff * other.sums_[h];
}

template <class C>
void BasicCounterGrid<C>::clear() {
  std::fill(counters_.begin(), counters_.end(), C{0});
  std::fill(sums_.begin(), sums_.end(), C{0});
  update_count_ = 0;
}

template <class C>
void BasicCounterGrid<C>::load_counters(std::span<const C> counters) {
  if (counters.size() != size()) {
    throw std::invalid_argument("CounterGrid::load_counters: size mismatch");
  }
  std::copy(counters.begin(), counters.end(), counters_.begin());
  for (std::size_t h = 0; h < rows_; ++h) {
    C sum{0};
    for (std::size_t b = 0; b < cols_; ++b) {
      counter::add(sum, counters_[h * cols_ + b]);
    }
    sums_[h] = sum;
  }
}

template <class C>
StageBuckets BasicCounterGrid<C>::heavy_buckets(double threshold) const {
  const double k = static_cast<double>(cols_);
  StageBuckets out(rows_);
  for (std::size_t h = 0; h < rows_; ++h) {
    // estimate >= t  <=>  bucket >= t*(1 - 1/K) + sum/K
    const double cut = threshold * (1.0 - 1.0 / k) + stage_sum(h) / k;
    for (std::size_t b = 0; b < cols_; ++b) {
      if (at(h, b) >= cut) out[h].push_back(static_cast<std::uint32_t>(b));
    }
  }
  return out;
}

template <class C>
std::size_t BasicCounterGrid<C>::apply_top_n(StageBuckets& buckets,
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

template <class C>
double BasicCounterGrid<C>::median_of(std::span<double> v) {
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (n % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

template class BasicCounterGrid<double>;
template class BasicCounterGrid<std::int32_t>;

}  // namespace hifind
