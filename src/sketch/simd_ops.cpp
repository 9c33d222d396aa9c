#include "sketch/simd_ops.hpp"

#include <atomic>
#include <bit>

namespace hifind::simd {
namespace detail {

// ---------------------------------------------------------------------------
// Portable scalar backend. Per-element expressions here are the reference
// semantics; the AVX2 backend reproduces them operation-for-operation.

namespace scalar {

void accumulate(double* y, const double* x, std::size_t n, double c) {
  for (std::size_t i = 0; i < n; ++i) y[i] += c * x[i];
}

std::size_t ewma_roll(double* fc, const std::int32_t* obs, double scale,
                      double* err, std::size_t n, double alpha, double cut,
                      std::uint32_t* out_idx) {
  const double keep = 1.0 - alpha;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = scale * static_cast<double>(obs[i]);
    const double e = o - fc[i];
    err[i] = e;
    fc[i] = (keep * fc[i]) + (alpha * o);
    if (out_idx != nullptr && e >= cut) {
      out_idx[emitted++] = static_cast<std::uint32_t>(i);
    }
  }
  return emitted;
}

std::size_t holt_roll(double* level, double* trend, const std::int32_t* obs,
                      double scale, double* err, std::size_t n, double alpha,
                      double beta, double cut, std::uint32_t* out_idx) {
  const double keep_a = 1.0 - alpha;
  const double keep_b = 1.0 - beta;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double o = scale * static_cast<double>(obs[i]);
    const double f = level[i] + trend[i];
    const double e = o - f;
    err[i] = e;
    const double nl = (keep_a * f) + (alpha * o);
    const double d = nl - level[i];
    trend[i] = (keep_b * trend[i]) + (beta * d);
    level[i] = nl;
    if (out_idx != nullptr && e >= cut) {
      out_idx[emitted++] = static_cast<std::uint32_t>(i);
    }
  }
  return emitted;
}

std::size_t ma_roll(const double* sum, const std::int32_t* obs, double scale,
                    double* err, std::size_t n, double inv_n, double cut,
                    std::uint32_t* out_idx) {
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = scale * static_cast<double>(obs[i]) - inv_n * sum[i];
    err[i] = e;
    if (out_idx != nullptr && e >= cut) {
      out_idx[emitted++] = static_cast<std::uint32_t>(i);
    }
  }
  return emitted;
}

void add_bit_run(std::int32_t* run, std::uint64_t bits, int nbits,
                 std::int32_t delta) {
  if (nbits < 64) bits &= (std::uint64_t{1} << nbits) - 1;
  const auto d = static_cast<std::uint32_t>(delta);
  for (; bits != 0; bits &= bits - 1) {
    std::int32_t& c = run[std::countr_zero(bits)];
    c = static_cast<std::int32_t>(static_cast<std::uint32_t>(c) + d);
  }
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
void accumulate(double* y, const double* x, std::size_t n, double c);
std::size_t ewma_roll(double* fc, const std::int32_t* obs, double scale,
                      double* err, std::size_t n, double alpha, double cut,
                      std::uint32_t* out_idx);
std::size_t holt_roll(double* level, double* trend, const std::int32_t* obs,
                      double scale, double* err, std::size_t n, double alpha,
                      double beta, double cut, std::uint32_t* out_idx);
std::size_t ma_roll(const double* sum, const std::int32_t* obs, double scale,
                    double* err, std::size_t n, double inv_n, double cut,
                    std::uint32_t* out_idx);
void add_bit_run(std::int32_t* run, std::uint64_t bits, int nbits,
                 std::int32_t delta);
void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out);
}  // namespace avx2
#endif

/// One backend = one table of kernel entry points.
struct Backend {
  const char* name;
  void (*accumulate)(double*, const double*, std::size_t, double);
  std::size_t (*ewma_roll)(double*, const std::int32_t*, double, double*,
                           std::size_t, double, double, std::uint32_t*);
  std::size_t (*holt_roll)(double*, double*, const std::int32_t*, double,
                           double*, std::size_t, double, double, double,
                           std::uint32_t*);
  std::size_t (*ma_roll)(const double*, const std::int32_t*, double, double*,
                         std::size_t, double, double, std::uint32_t*);
  AddBitRunFn add_bit_run;
  void (*tab_hash64)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                     int, std::uint64_t*);
};

constexpr Backend kScalarBackend{
    "scalar",
    scalar::accumulate,
    scalar::ewma_roll,
    scalar::holt_roll,
    scalar::ma_roll,
    scalar::add_bit_run,
    scalar::tab_hash64,
};

#if defined(HIFIND_HAVE_AVX2)
constexpr Backend kAvx2Backend{
    "avx2",
    avx2::accumulate,
    avx2::ewma_roll,
    avx2::holt_roll,
    avx2::ma_roll,
    avx2::add_bit_run,
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

void accumulate(double* y, const double* x, std::size_t n, double c) {
  detail::active().accumulate(y, x, n, c);
}

std::size_t ewma_roll(double* fc, const std::int32_t* obs, double scale,
                      double* err, std::size_t n, double alpha, double cut,
                      std::uint32_t* out_idx) {
  return detail::active().ewma_roll(fc, obs, scale, err, n, alpha, cut,
                                    out_idx);
}

std::size_t holt_roll(double* level, double* trend, const std::int32_t* obs,
                      double scale, double* err, std::size_t n, double alpha,
                      double beta, double cut, std::uint32_t* out_idx) {
  return detail::active().holt_roll(level, trend, obs, scale, err, n, alpha,
                                    beta, cut, out_idx);
}

std::size_t ma_roll(const double* sum, const std::int32_t* obs, double scale,
                    double* err, std::size_t n, double inv_n, double cut,
                    std::uint32_t* out_idx) {
  return detail::active().ma_roll(sum, obs, scale, err, n, inv_n, cut,
                                  out_idx);
}

void add_bit_run(std::int32_t* run, std::uint64_t bits, int nbits,
                 std::int32_t delta) {
  detail::active().add_bit_run(run, bits, nbits, delta);
}

AddBitRunFn add_bit_run_kernel() { return detail::active().add_bit_run; }

void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out) {
  detail::active().tab_hash64(keys, n, table, nbytes, out);
}

const char* active_backend() { return detail::active().name; }

void set_force_scalar(bool force) {
  detail::g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace hifind::simd
