// AVX2 backend for simd_ops. Compiled with -mavx2 -ffp-contract=off (and
// WITHOUT -mfma): every vector body uses only vmulpd/vaddpd/vsubpd (plus the
// exact vcvtdq2pd widening and integer adds), whose per-lane results are
// bit-identical to the scalar backend's — the bit-identity contract the
// detection epoch's determinism rests on. Observations are int32 counters
// read as scale*double(obs[i]).
// Remainder elements (n % 4) run the same scalar expressions.
#if defined(HIFIND_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hifind::simd::detail::avx2 {
namespace {

/// Appends base + lane for every lane of `e` that is >= `vcut`, in lane
/// order; returns the new emitted count.
inline std::size_t emit_ge(__m256d e, __m256d vcut, std::size_t base,
                           std::uint32_t* out_idx, std::size_t emitted) {
  unsigned m = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(e, vcut, _CMP_GE_OQ)));
  while (m != 0) {
    const int lane = std::countr_zero(m);
    m &= m - 1;
    out_idx[emitted++] = static_cast<std::uint32_t>(base) +
                         static_cast<std::uint32_t>(lane);
  }
  return emitted;
}

}  // namespace

void accumulate(double* y, const double* x, std::size_t n, double c) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(vc, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += c * x[i];
}

namespace {

/// Observations i..i+3 as scale*double(obs[i]): vcvtdq2pd widens exactly,
/// so lane i matches the scalar conversion.
inline __m256d load_obs(const std::int32_t* obs, std::size_t i,
                        __m256d vscale) {
  const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(obs + i));
  return _mm256_mul_pd(vscale, _mm256_cvtepi32_pd(x));
}

}  // namespace

std::size_t ewma_roll(double* fc, const std::int32_t* obs, double scale,
                      double* err, std::size_t n, double alpha, double cut,
                      std::uint32_t* out_idx) {
  const double keep = 1.0 - alpha;
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vkeep = _mm256_set1_pd(keep);
  const __m256d valpha = _mm256_set1_pd(alpha);
  const __m256d vcut = _mm256_set1_pd(cut);
  std::size_t emitted = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d o = load_obs(obs, i, vscale);
    const __m256d f = _mm256_loadu_pd(fc + i);
    const __m256d e = _mm256_sub_pd(o, f);
    _mm256_storeu_pd(err + i, e);
    _mm256_storeu_pd(fc + i, _mm256_add_pd(_mm256_mul_pd(vkeep, f),
                                           _mm256_mul_pd(valpha, o)));
    if (out_idx != nullptr) emitted = emit_ge(e, vcut, i, out_idx, emitted);
  }
  for (; i < n; ++i) {
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
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vka = _mm256_set1_pd(keep_a);
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vkb = _mm256_set1_pd(keep_b);
  const __m256d vb = _mm256_set1_pd(beta);
  const __m256d vcut = _mm256_set1_pd(cut);
  std::size_t emitted = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d o = load_obs(obs, i, vscale);
    const __m256d l = _mm256_loadu_pd(level + i);
    const __m256d t = _mm256_loadu_pd(trend + i);
    const __m256d f = _mm256_add_pd(l, t);
    const __m256d e = _mm256_sub_pd(o, f);
    _mm256_storeu_pd(err + i, e);
    const __m256d nl =
        _mm256_add_pd(_mm256_mul_pd(vka, f), _mm256_mul_pd(va, o));
    const __m256d d = _mm256_sub_pd(nl, l);
    _mm256_storeu_pd(trend + i, _mm256_add_pd(_mm256_mul_pd(vkb, t),
                                              _mm256_mul_pd(vb, d)));
    _mm256_storeu_pd(level + i, nl);
    if (out_idx != nullptr) emitted = emit_ge(e, vcut, i, out_idx, emitted);
  }
  for (; i < n; ++i) {
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
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vinv = _mm256_set1_pd(inv_n);
  const __m256d vcut = _mm256_set1_pd(cut);
  std::size_t emitted = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(vinv, _mm256_loadu_pd(sum + i));
    const __m256d e = _mm256_sub_pd(load_obs(obs, i, vscale), prod);
    _mm256_storeu_pd(err + i, e);
    if (out_idx != nullptr) emitted = emit_ge(e, vcut, i, out_idx, emitted);
  }
  for (; i < n; ++i) {
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
  // Lane j of key byte g adds delta iff bit 8g+j is set: broadcast the byte,
  // test it against the lane's bit, and add the masked delta.
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i vdelta = _mm256_set1_epi32(delta);
  int b = 0;
  for (; b + 8 <= nbits; b += 8) {
    const __m256i byte =
        _mm256_set1_epi32(static_cast<int>((bits >> b) & 0xff));
    const __m256i sel =
        _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane_bit), lane_bit);
    auto* p = reinterpret_cast<__m256i*>(run + b);
    _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p),
                                            _mm256_and_si256(sel, vdelta)));
  }
  const auto d = static_cast<std::uint32_t>(delta);
  for (; b < nbits; ++b) {
    if (((bits >> b) & 1) != 0) {
      run[b] = static_cast<std::int32_t>(static_cast<std::uint32_t>(run[b]) + d);
    }
  }
}

void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out) {
  const __m256i byte_mask = _mm256_set1_epi64x(0xff);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i h = _mm256_setzero_si256();
    for (int b = 0; b < nbytes; ++b) {
      const __m256i idx =
          _mm256_and_si256(_mm256_srli_epi64(k, 8 * b), byte_mask);
      h = _mm256_xor_si256(
          h, _mm256_i64gather_epi64(
                 reinterpret_cast<const long long*>(table + b * 256), idx, 8));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) {
    const std::uint64_t k = keys[i];
    std::uint64_t h = 0;
    for (int b = 0; b < nbytes; ++b) {
      h ^= table[b * 256 + ((k >> (8 * b)) & 0xff)];
    }
    out[i] = h;
  }
}

}  // namespace hifind::simd::detail::avx2

#endif  // HIFIND_HAVE_AVX2
