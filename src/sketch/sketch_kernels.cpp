#include "sketch/sketch_kernels.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/simd_ops.hpp"

namespace hifind::kernels {
namespace {

void check_shape(const CounterGrid& a, const CounterGrid& b, const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string("sketch kernel ") + what +
                                ": grids have different shapes");
  }
}

/// True when `heavy` is requested and the grid has a collect region to scan;
/// sizes `heavy` to one list per row, or clears it when there is none.
bool start_collect(const CounterGrid& obs, StageBuckets* heavy) {
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

}  // namespace

void ewma_roll(CounterGrid& fc, const CounterGrid& obs, CounterGrid& err,
               double alpha, double threshold, StageBuckets* heavy) {
  check_shape(fc, obs, "ewma_roll");
  check_shape(err, obs, "ewma_roll");
  double* f = fc.data();
  const double* o = obs.data();
  double* e = err.data();
  const double* os = obs.sums();
  double* fs = fc.sums();
  double* es = err.sums();
  const std::size_t K = obs.cols();
  const bool collect = start_collect(obs, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < obs.rows(); ++h) {
    const double err_sum = os[h] + (-1.0) * fs[h];
    if (collect) {
      const std::size_t n =
          simd::ewma_roll(f + h * K, o + h * K, e + h * K, K, alpha,
                          stage_cut(threshold, err_sum, K), scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
    fs[h] = ((1.0 - alpha) * fs[h]) + (alpha * os[h]);
  }
  // Everything the collecting pass did not cover (all of it when not
  // collecting) takes the same roll without collection.
  const std::size_t done = collect ? obs.rows() * K : 0;
  if (done < obs.size()) {
    simd::ewma_roll(f + done, o + done, e + done, obs.size() - done, alpha,
                    0.0, nullptr);
  }
  err.set_update_count(obs.update_count());
}

void holt_roll(CounterGrid& level, CounterGrid& trend, const CounterGrid& obs,
               CounterGrid& err, double alpha, double beta, double threshold,
               StageBuckets* heavy) {
  check_shape(level, obs, "holt_roll");
  check_shape(trend, obs, "holt_roll");
  check_shape(err, obs, "holt_roll");
  double* l = level.data();
  double* t = trend.data();
  const double* o = obs.data();
  double* e = err.data();
  const double* os = obs.sums();
  double* ls = level.sums();
  double* ts = trend.sums();
  double* es = err.sums();
  const std::size_t K = obs.cols();
  const bool collect = start_collect(obs, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < obs.rows(); ++h) {
    const double f_sum = ls[h] + 1.0 * ts[h];
    const double err_sum = os[h] + (-1.0) * f_sum;
    if (collect) {
      const std::size_t n =
          simd::holt_roll(l + h * K, t + h * K, o + h * K, e + h * K, K,
                          alpha, beta, stage_cut(threshold, err_sum, K),
                          scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
    const double nl_sum = ((1.0 - alpha) * f_sum) + (alpha * os[h]);
    const double d_sum = nl_sum + (-1.0) * ls[h];
    ts[h] = ((1.0 - beta) * ts[h]) + (beta * d_sum);
    ls[h] = nl_sum;
  }
  const std::size_t done = collect ? obs.rows() * K : 0;
  if (done < obs.size()) {
    simd::holt_roll(l + done, t + done, o + done, e + done, obs.size() - done,
                    alpha, beta, 0.0, nullptr);
  }
  err.set_update_count(obs.update_count());
}

void ma_roll(const CounterGrid& sum, const CounterGrid& obs, CounterGrid& err,
             double inv_n, double threshold, StageBuckets* heavy) {
  check_shape(sum, obs, "ma_roll");
  check_shape(err, obs, "ma_roll");
  const double* s = sum.data();
  const double* o = obs.data();
  double* e = err.data();
  const double* os = obs.sums();
  const double* ss = sum.sums();
  double* es = err.sums();
  const std::size_t K = obs.cols();
  const bool collect = start_collect(obs, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  for (std::size_t h = 0; h < obs.rows(); ++h) {
    const double err_sum = os[h] - inv_n * ss[h];
    if (collect) {
      const std::size_t n =
          simd::ma_roll(s + h * K, o + h * K, e + h * K, K, inv_n,
                        stage_cut(threshold, err_sum, K), scratch);
      (*heavy)[h].assign(scratch, scratch + n);
    }
    es[h] = err_sum;
  }
  const std::size_t done = collect ? obs.rows() * K : 0;
  if (done < obs.size()) {
    simd::ma_roll(s + done, o + done, e + done, obs.size() - done, inv_n, 0.0,
                  nullptr);
  }
  err.set_update_count(obs.update_count());
}

}  // namespace hifind::kernels
