#include "sketch/sketch_kernels.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/simd_ops.hpp"

namespace hifind::kernels {
namespace {

void check_shape(const CounterGrid& a, const CounterGrid32& b,
                 const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string("sketch kernel ") + what +
                                ": grids have different shapes");
  }
}

/// True when `heavy` is requested and the grid has a collect region to scan;
/// sizes `heavy` to one list per row, or clears it when there is none.
bool start_collect(const CounterGrid32& obs, StageBuckets* heavy) {
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

void ewma_roll(CounterGrid& fc, const CounterGrid32& g, double scale,
               CounterGrid& err, double alpha, double threshold,
               StageBuckets* heavy) {
  check_shape(fc, g, "ewma_roll");
  check_shape(err, g, "ewma_roll");
  double* f = fc.data();
  double* e = err.data();
  double* fs = fc.sums();
  double* es = err.sums();
  const std::size_t K = g.cols();
  const bool collect = start_collect(g, heavy);
  std::uint32_t* scratch = collect ? collect_scratch(K) : nullptr;
  const std::int32_t* o = g.data();
  for (std::size_t h = 0; h < g.rows(); ++h) {
    const double os = scale * g.stage_sum(h);
    const double err_sum = os + (-1.0) * fs[h];
    if (collect) {
      const std::size_t n =
          simd::ewma_roll(f + h * K, o + h * K, scale, e + h * K, K, alpha,
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
    simd::ewma_roll(f + done, o + done, scale, e + done, g.size() - done,
                    alpha, 0.0, nullptr);
  }
}

}  // namespace hifind::kernels
