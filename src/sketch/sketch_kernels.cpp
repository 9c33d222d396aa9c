#include "sketch/sketch_kernels.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/simd_ops.hpp"

namespace hifind::kernels {
namespace {

template <class C>
void check_shape(const CounterGrid& a, const BasicCounterGrid<C>& b,
                 const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string("sketch kernel ") + what +
                                ": grids have different shapes");
  }
}

/// One observation grid as the rolls read it: its counters through the
/// matching simd kernel, its stage sums as doubles (scale × sum for int32).
struct F64Obs {
  const CounterGrid& grid;

  double sum(std::size_t h) const { return grid.sums()[h]; }
  std::size_t ewma(double* f, std::size_t off, double* e, std::size_t n,
                   double alpha, double cut, std::uint32_t* idx) const {
    return simd::ewma_roll(f, grid.data() + off, e, n, alpha, cut, idx);
  }
  std::size_t holt(double* l, double* t, std::size_t off, double* e,
                   std::size_t n, double alpha, double beta, double cut,
                   std::uint32_t* idx) const {
    return simd::holt_roll(l, t, grid.data() + off, e, n, alpha, beta, cut,
                           idx);
  }
  std::size_t ma(const double* s, std::size_t off, double* e, std::size_t n,
                 double inv_n, double cut, std::uint32_t* idx) const {
    return simd::ma_roll(s, grid.data() + off, e, n, inv_n, cut, idx);
  }
};

struct I32Obs {
  const CounterGrid32& grid;
  double scale;

  double sum(std::size_t h) const { return scale * grid.stage_sum(h); }
  std::size_t ewma(double* f, std::size_t off, double* e, std::size_t n,
                   double alpha, double cut, std::uint32_t* idx) const {
    return simd::ewma_roll_i32(f, grid.data() + off, scale, e, n, alpha, cut,
                               idx);
  }
  std::size_t holt(double* l, double* t, std::size_t off, double* e,
                   std::size_t n, double alpha, double beta, double cut,
                   std::uint32_t* idx) const {
    return simd::holt_roll_i32(l, t, grid.data() + off, scale, e, n, alpha,
                               beta, cut, idx);
  }
  std::size_t ma(const double* s, std::size_t off, double* e, std::size_t n,
                 double inv_n, double cut, std::uint32_t* idx) const {
    return simd::ma_roll_i32(s, grid.data() + off, scale, e, n, inv_n, cut,
                             idx);
  }
};

/// True when `heavy` is requested and the grid has a collect region to scan;
/// sizes `heavy` to one list per row, or clears it when there is none.
template <class C>
bool start_collect(const BasicCounterGrid<C>& obs, StageBuckets* heavy) {
  if (heavy == nullptr) return false;
  heavy->resize(obs.rows());
  return obs.rows() != 0;
}

/// Reusable per-thread index buffer for the collecting passes (sized to the
/// largest row seen; TaskPool workers each get their own).
std::uint32_t* collect_scratch(std::size_t row_len) {
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < row_len) scratch.resize(row_len);
  return scratch.data();
}

/// Heavy-bucket cut for one row, given the error grid's stage sum:
/// estimate >= t  <=>  bucket >= t*(1 - 1/K) + sum/K (the exact expression
/// CounterGrid::heavy_buckets uses).
double stage_cut(double threshold, double err_sum, std::size_t cols) {
  const double k = static_cast<double>(cols);
  return threshold * (1.0 - 1.0 / k) + err_sum / k;
}

template <class Obs>
void ewma_impl(CounterGrid& fc, const Obs& obs, CounterGrid& err, double alpha,
               double threshold, StageBuckets* heavy) {
  const auto& g = obs.grid;
  check_shape(fc, g, "ewma_roll");
  check_shape(err, g, "ewma_roll");
  double* f = fc.data();
  double* e = err.data();
  double* fs = fc.sums();
  double* es = err.sums();
  const std::size_t K = g.cols();
  const bool collect = start_collect(g, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < g.rows(); ++h) {
    const double os = obs.sum(h);
    const double err_sum = os + (-1.0) * fs[h];
    if (collect) {
      const std::size_t n =
          obs.ewma(f + h * K, h * K, e + h * K, K, alpha,
                   stage_cut(threshold, err_sum, K), scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
    fs[h] = ((1.0 - alpha) * fs[h]) + (alpha * os);
  }
  // Everything the collecting pass did not cover (all of it when not
  // collecting) takes the same roll without collection.
  const std::size_t done = collect ? g.rows() * K : 0;
  if (done < g.size()) {
    obs.ewma(f + done, done, e + done, g.size() - done, alpha, 0.0, nullptr);
  }
  err.set_update_count(g.update_count());
}

template <class Obs>
void holt_impl(CounterGrid& level, CounterGrid& trend, const Obs& obs,
               CounterGrid& err, double alpha, double beta, double threshold,
               StageBuckets* heavy) {
  const auto& g = obs.grid;
  check_shape(level, g, "holt_roll");
  check_shape(trend, g, "holt_roll");
  check_shape(err, g, "holt_roll");
  double* l = level.data();
  double* t = trend.data();
  double* e = err.data();
  double* ls = level.sums();
  double* ts = trend.sums();
  double* es = err.sums();
  const std::size_t K = g.cols();
  const bool collect = start_collect(g, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < g.rows(); ++h) {
    const double os = obs.sum(h);
    const double f_sum = ls[h] + 1.0 * ts[h];
    const double err_sum = os + (-1.0) * f_sum;
    if (collect) {
      const std::size_t n =
          obs.holt(l + h * K, t + h * K, h * K, e + h * K, K, alpha, beta,
                   stage_cut(threshold, err_sum, K), scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
    const double nl_sum = ((1.0 - alpha) * f_sum) + (alpha * os);
    const double d_sum = nl_sum + (-1.0) * ls[h];
    ts[h] = ((1.0 - beta) * ts[h]) + (beta * d_sum);
    ls[h] = nl_sum;
  }
  const std::size_t done = collect ? g.rows() * K : 0;
  if (done < g.size()) {
    obs.holt(l + done, t + done, done, e + done, g.size() - done, alpha, beta,
             0.0, nullptr);
  }
  err.set_update_count(g.update_count());
}

template <class Obs>
void ma_impl(const CounterGrid& sum, const Obs& obs, CounterGrid& err,
             double inv_n, double threshold, StageBuckets* heavy) {
  const auto& g = obs.grid;
  check_shape(sum, g, "ma_roll");
  check_shape(err, g, "ma_roll");
  const double* s = sum.data();
  double* e = err.data();
  const double* ss = sum.sums();
  double* es = err.sums();
  const std::size_t K = g.cols();
  const bool collect = start_collect(g, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < g.rows(); ++h) {
    const double err_sum = obs.sum(h) - inv_n * ss[h];
    if (collect) {
      const std::size_t n =
          obs.ma(s + h * K, h * K, e + h * K, K, inv_n,
                 stage_cut(threshold, err_sum, K), scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
  }
  const std::size_t done = collect ? g.rows() * K : 0;
  if (done < g.size()) {
    obs.ma(s + done, done, e + done, g.size() - done, inv_n, 0.0, nullptr);
  }
  err.set_update_count(g.update_count());
}

}  // namespace

void ewma_roll(CounterGrid& fc, const CounterGrid& obs, CounterGrid& err,
               double alpha, double threshold, StageBuckets* heavy) {
  ewma_impl(fc, F64Obs{obs}, err, alpha, threshold, heavy);
}

void ewma_roll(CounterGrid& fc, const CounterGrid32& obs, double scale,
               CounterGrid& err, double alpha, double threshold,
               StageBuckets* heavy) {
  ewma_impl(fc, I32Obs{obs, scale}, err, alpha, threshold, heavy);
}

void holt_roll(CounterGrid& level, CounterGrid& trend, const CounterGrid& obs,
               CounterGrid& err, double alpha, double beta, double threshold,
               StageBuckets* heavy) {
  holt_impl(level, trend, F64Obs{obs}, err, alpha, beta, threshold, heavy);
}

void holt_roll(CounterGrid& level, CounterGrid& trend,
               const CounterGrid32& obs, double scale, CounterGrid& err,
               double alpha, double beta, double threshold,
               StageBuckets* heavy) {
  holt_impl(level, trend, I32Obs{obs, scale}, err, alpha, beta, threshold,
            heavy);
}

void ma_roll(const CounterGrid& sum, const CounterGrid& obs, CounterGrid& err,
             double inv_n, double threshold, StageBuckets* heavy) {
  ma_impl(sum, F64Obs{obs}, err, inv_n, threshold, heavy);
}

void ma_roll(const CounterGrid& sum, const CounterGrid32& obs, double scale,
             CounterGrid& err, double inv_n, double threshold,
             StageBuckets* heavy) {
  ma_impl(sum, I32Obs{obs, scale}, err, inv_n, threshold, heavy);
}

}  // namespace hifind::kernels
