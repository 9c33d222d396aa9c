#include "sketch/simd_ops.hpp"

#include <atomic>

namespace hifind::simd {
namespace detail {

// ---------------------------------------------------------------------------
// Portable scalar backend. Per-element expressions here are the reference
// semantics; the AVX2 backend reproduces them operation-for-operation.

namespace scalar {

void scale(double* y, std::size_t n, double c) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= c;
}

void accumulate(double* y, const double* x, std::size_t n, double c) {
  for (std::size_t i = 0; i < n; ++i) y[i] += c * x[i];
}

void axpby(double* y, const double* x, std::size_t n, double a, double b) {
  for (std::size_t i = 0; i < n; ++i) y[i] = (a * y[i]) + (b * x[i]);
}

void ewma_roll(double* fc, const double* obs, double* err, std::size_t n,
               double alpha) {
  const double keep = 1.0 - alpha;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = obs[i];
    err[i] = o - fc[i];
    fc[i] = (keep * fc[i]) + (alpha * o);
  }
}

std::size_t ewma_roll_collect(double* fc, const double* obs, double* err,
                              std::size_t n, double alpha, double cut,
                              std::uint32_t* out_idx) {
  const double keep = 1.0 - alpha;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = obs[i];
    const double e = o - fc[i];
    err[i] = e;
    fc[i] = (keep * fc[i]) + (alpha * o);
    if (e >= cut) out_idx[emitted++] = static_cast<std::uint32_t>(i);
  }
  return emitted;
}

void holt_roll(double* level, double* trend, const double* obs, double* err,
               std::size_t n, double alpha, double beta) {
  const double keep_a = 1.0 - alpha;
  const double keep_b = 1.0 - beta;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = obs[i];
    const double f = level[i] + trend[i];
    err[i] = o - f;
    const double nl = (keep_a * f) + (alpha * o);
    const double d = nl - level[i];
    trend[i] = (keep_b * trend[i]) + (beta * d);
    level[i] = nl;
  }
}

std::size_t holt_roll_collect(double* level, double* trend, const double* obs,
                              double* err, std::size_t n, double alpha,
                              double beta, double cut,
                              std::uint32_t* out_idx) {
  const double keep_a = 1.0 - alpha;
  const double keep_b = 1.0 - beta;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = obs[i];
    const double f = level[i] + trend[i];
    const double e = o - f;
    err[i] = e;
    const double nl = (keep_a * f) + (alpha * o);
    const double d = nl - level[i];
    trend[i] = (keep_b * trend[i]) + (beta * d);
    level[i] = nl;
    if (e >= cut) out_idx[emitted++] = static_cast<std::uint32_t>(i);
  }
  return emitted;
}

void ma_roll(const double* sum, const double* obs, double* err, std::size_t n,
             double inv_n) {
  for (std::size_t i = 0; i < n; ++i) err[i] = obs[i] - inv_n * sum[i];
}

std::size_t ma_roll_collect(const double* sum, const double* obs, double* err,
                            std::size_t n, double inv_n, double cut,
                            std::uint32_t* out_idx) {
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = obs[i] - inv_n * sum[i];
    err[i] = e;
    if (e >= cut) out_idx[emitted++] = static_cast<std::uint32_t>(i);
  }
  return emitted;
}

void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    std::uint64_t h = 0;
    for (int b = 0; b < nbytes; ++b) {
      h ^= table[b * 256 + ((k >> (8 * b)) & 0xff)];
    }
    out[i] = h;
  }
}

}  // namespace scalar

#if defined(HIFIND_HAVE_AVX2)
// Defined in simd_ops_avx2.cpp (compiled with -mavx2 -ffp-contract=off).
namespace avx2 {
void scale(double* y, std::size_t n, double c);
void accumulate(double* y, const double* x, std::size_t n, double c);
void axpby(double* y, const double* x, std::size_t n, double a, double b);
void ewma_roll(double* fc, const double* obs, double* err, std::size_t n,
               double alpha);
std::size_t ewma_roll_collect(double* fc, const double* obs, double* err,
                              std::size_t n, double alpha, double cut,
                              std::uint32_t* out_idx);
void holt_roll(double* level, double* trend, const double* obs, double* err,
               std::size_t n, double alpha, double beta);
std::size_t holt_roll_collect(double* level, double* trend, const double* obs,
                              double* err, std::size_t n, double alpha,
                              double beta, double cut, std::uint32_t* out_idx);
void ma_roll(const double* sum, const double* obs, double* err, std::size_t n,
             double inv_n);
std::size_t ma_roll_collect(const double* sum, const double* obs, double* err,
                            std::size_t n, double inv_n, double cut,
                            std::uint32_t* out_idx);
void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out);
}  // namespace avx2
#endif

/// One backend = one table of kernel entry points.
struct Backend {
  const char* name;
  void (*scale)(double*, std::size_t, double);
  void (*accumulate)(double*, const double*, std::size_t, double);
  void (*axpby)(double*, const double*, std::size_t, double, double);
  void (*ewma_roll)(double*, const double*, double*, std::size_t, double);
  std::size_t (*ewma_roll_collect)(double*, const double*, double*,
                                   std::size_t, double, double,
                                   std::uint32_t*);
  void (*holt_roll)(double*, double*, const double*, double*, std::size_t,
                    double, double);
  std::size_t (*holt_roll_collect)(double*, double*, const double*, double*,
                                   std::size_t, double, double, double,
                                   std::uint32_t*);
  void (*ma_roll)(const double*, const double*, double*, std::size_t, double);
  std::size_t (*ma_roll_collect)(const double*, const double*, double*,
                                 std::size_t, double, double, std::uint32_t*);
  void (*tab_hash64)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                     int, std::uint64_t*);
};

constexpr Backend kScalarBackend{
    "scalar",        scalar::scale,
    scalar::accumulate, scalar::axpby,
    scalar::ewma_roll,  scalar::ewma_roll_collect,
    scalar::holt_roll,  scalar::holt_roll_collect,
    scalar::ma_roll,    scalar::ma_roll_collect,
    scalar::tab_hash64,
};

#if defined(HIFIND_HAVE_AVX2)
constexpr Backend kAvx2Backend{
    "avx2",          avx2::scale,
    avx2::accumulate,   avx2::axpby,
    avx2::ewma_roll,    avx2::ewma_roll_collect,
    avx2::holt_roll,    avx2::holt_roll_collect,
    avx2::ma_roll,      avx2::ma_roll_collect,
    avx2::tab_hash64,
};
#endif

bool cpu_has_avx2() {
#if defined(HIFIND_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Backend* pick_backend() {
#if defined(HIFIND_HAVE_AVX2)
  if (cpu_has_avx2()) return &kAvx2Backend;
#endif
  return &kScalarBackend;
}

std::atomic<bool> g_force_scalar{false};

const Backend& active() {
  static const Backend* best = pick_backend();  // resolved once, thread-safe
  return g_force_scalar.load(std::memory_order_relaxed) ? kScalarBackend
                                                        : *best;
}

}  // namespace detail

void scale(double* y, std::size_t n, double c) {
  detail::active().scale(y, n, c);
}

void accumulate(double* y, const double* x, std::size_t n, double c) {
  detail::active().accumulate(y, x, n, c);
}

void axpby(double* y, const double* x, std::size_t n, double a, double b) {
  detail::active().axpby(y, x, n, a, b);
}

void ewma_roll(double* fc, const double* obs, double* err, std::size_t n,
               double alpha) {
  detail::active().ewma_roll(fc, obs, err, n, alpha);
}

std::size_t ewma_roll_collect(double* fc, const double* obs, double* err,
                              std::size_t n, double alpha, double cut,
                              std::uint32_t* out_idx) {
  return detail::active().ewma_roll_collect(fc, obs, err, n, alpha, cut,
                                            out_idx);
}

void holt_roll(double* level, double* trend, const double* obs, double* err,
               std::size_t n, double alpha, double beta) {
  detail::active().holt_roll(level, trend, obs, err, n, alpha, beta);
}

std::size_t holt_roll_collect(double* level, double* trend, const double* obs,
                              double* err, std::size_t n, double alpha,
                              double beta, double cut,
                              std::uint32_t* out_idx) {
  return detail::active().holt_roll_collect(level, trend, obs, err, n, alpha,
                                            beta, cut, out_idx);
}

void ma_roll(const double* sum, const double* obs, double* err, std::size_t n,
             double inv_n) {
  detail::active().ma_roll(sum, obs, err, n, inv_n);
}

std::size_t ma_roll_collect(const double* sum, const double* obs, double* err,
                            std::size_t n, double inv_n, double cut,
                            std::uint32_t* out_idx) {
  return detail::active().ma_roll_collect(sum, obs, err, n, inv_n, cut,
                                          out_idx);
}

void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out) {
  detail::active().tab_hash64(keys, n, table, nbytes, out);
}

const char* active_backend() { return detail::active().name; }

void set_force_scalar(bool force) {
  detail::g_force_scalar.store(force, std::memory_order_relaxed);
}

bool avx2_available() { return detail::cpu_has_avx2(); }

}  // namespace hifind::simd
