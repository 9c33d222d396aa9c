// Bit-identity contract of the SIMD kernel layer (sketch/simd_ops.hpp) and
// the fused sketch kernels built on it (sketch/sketch_kernels.hpp):
//  * the dispatched backend (AVX2 where available) must produce EXACTLY the
//    scalar backend's bits, for every length — including odd remainders;
//  * the fused rolls over int32 observations must produce EXACTLY the bits
//    of the unfused copy/scale/accumulate sequences they replace, run over a
//    double copy of the observation, on all three sketch types;
//  * the fused heavy-bucket collection must report EXACTLY heavy_buckets(),
//    and a roll without collection must leave the same bits as one with.
#include "sketch/simd_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "forecast/forecaster.hpp"
#include "sketch/compact_invertible.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_kernels.hpp"

namespace hifind {
namespace {

/// Runs `fn` once with the dispatched backend and once with the scalar
/// backend forced, restoring dispatch afterwards.
template <class Fn>
void with_both_backends(Fn&& fn) {
  simd::set_force_scalar(false);
  fn(0);
  simd::set_force_scalar(true);
  fn(1);
  simd::set_force_scalar(false);
}

std::vector<double> random_doubles(std::size_t n, Pcg32& rng) {
  std::vector<double> v(n);
  for (auto& x : v) {
    // Mix of magnitudes and signs, plus exact integers like real counters.
    const double raw = static_cast<double>(rng.next() % 100000) / 7.0;
    x = (rng.next() % 2 == 0) ? raw : -raw;
    if (rng.next() % 4 == 0) x = std::floor(x);
  }
  return v;
}

std::vector<std::int32_t> random_int32s(std::size_t n, Pcg32& rng) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v) {
    switch (rng.bounded(8)) {
      case 0:
        x = std::numeric_limits<std::int32_t>::max();
        break;
      case 1:
        x = std::numeric_limits<std::int32_t>::min();
        break;
      default:
        x = static_cast<std::int32_t>(rng.bounded(20001)) - 10000;
    }
  }
  return v;
}

TEST(SimdOpsTest, BackendReportsName) {
  const std::string name = simd::active_backend();
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
  simd::set_force_scalar(true);
  EXPECT_STREQ(simd::active_backend(), "scalar");
  simd::set_force_scalar(false);
}

/// Outputs of the three roll kernels over one input set. With `collect`
/// the kernels emit heavy candidates at `cut`; without it they get a null
/// output array and their return values are kept for checking.
struct RollOut {
  std::vector<double> ewma_fc, ewma_err;
  std::vector<double> holt_l, holt_t, holt_err;
  std::vector<double> ma_err;
  std::vector<std::uint32_t> ewma_idx, holt_idx, ma_idx;
  std::size_t ewma_n{0}, holt_n{0}, ma_n{0};
};

RollOut run_rolls(const std::vector<double>& y0,
                  const std::vector<std::int32_t>& x, double scale,
                  const std::vector<double>& sum, bool collect) {
  const std::size_t n = y0.size();
  const double alpha = 0.3, beta = 0.2, cut = 1.5, inv_n = 1.0 / 3.0;
  RollOut o;
  o.ewma_idx.assign(n, 0);
  o.holt_idx.assign(n, 0);
  o.ma_idx.assign(n, 0);
  o.ewma_fc = y0;
  o.ewma_err.assign(n, 0.0);
  o.ewma_n = simd::ewma_roll(o.ewma_fc.data(), x.data(), scale,
                             o.ewma_err.data(), n, alpha, cut,
                             collect ? o.ewma_idx.data() : nullptr);
  o.holt_l = y0;
  o.holt_t = sum;
  o.holt_err.assign(n, 0.0);
  o.holt_n = simd::holt_roll(o.holt_l.data(), o.holt_t.data(), x.data(),
                             scale, o.holt_err.data(), n, alpha, beta, cut,
                             collect ? o.holt_idx.data() : nullptr);
  o.ma_err.assign(n, 0.0);
  o.ma_n = simd::ma_roll(sum.data(), x.data(), scale, o.ma_err.data(), n,
                         inv_n, cut, collect ? o.ma_idx.data() : nullptr);
  o.ewma_idx.resize(collect ? o.ewma_n : 0);
  o.holt_idx.resize(collect ? o.holt_n : 0);
  o.ma_idx.resize(collect ? o.ma_n : 0);
  return o;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every kernel, every length 1..67 (covers all vector remainders and spans
// several full vector blocks): dispatched output must equal scalar output
// bit for bit.
TEST(SimdOpsTest, DispatchedBitIdenticalToScalarAllLengths) {
  Pcg32 rng(0xC0FFEE);
  for (std::size_t n = 1; n <= 67; ++n) {
    const auto y0 = random_doubles(n, rng);
    const auto x = random_doubles(n, rng);
    const auto x32 = random_int32s(n, rng);
    const auto sum = random_doubles(n, rng);
    const double c = 0.625, scale = 1.25;

    struct Out {
      std::vector<double> acc_y;
      RollOut rolls;
    } out[2];

    with_both_backends([&](int which) {
      Out& o = out[which];
      o.acc_y = y0;
      simd::accumulate(o.acc_y.data(), x.data(), n, c);
      o.rolls = run_rolls(y0, x32, scale, sum, /*collect=*/true);
    });

    EXPECT_EQ(out[0].acc_y, out[1].acc_y) << "accumulate n=" << n;
    const RollOut& d = out[0].rolls;
    const RollOut& r = out[1].rolls;
    EXPECT_TRUE(same_bits(d.ewma_fc, r.ewma_fc)) << "ewma fc n=" << n;
    EXPECT_TRUE(same_bits(d.ewma_err, r.ewma_err)) << "ewma err n=" << n;
    EXPECT_EQ(d.ewma_idx, r.ewma_idx) << "ewma idx n=" << n;
    EXPECT_TRUE(same_bits(d.holt_l, r.holt_l)) << "holt level n=" << n;
    EXPECT_TRUE(same_bits(d.holt_t, r.holt_t)) << "holt trend n=" << n;
    EXPECT_TRUE(same_bits(d.holt_err, r.holt_err)) << "holt err n=" << n;
    EXPECT_EQ(d.holt_idx, r.holt_idx) << "holt idx n=" << n;
    EXPECT_TRUE(same_bits(d.ma_err, r.ma_err)) << "ma err n=" << n;
    EXPECT_EQ(d.ma_idx, r.ma_idx) << "ma idx n=" << n;
  }
}

// A roll given no output array emits nothing, returns 0 and leaves every
// state and error array bit-identical to the collecting call, on both
// backends and every length 1..67.
TEST(SimdOpsTest, UncollectedRollMatchesCollectingRollAllLengths) {
  Pcg32 rng(0xBADC0DE);
  for (std::size_t n = 1; n <= 67; ++n) {
    const auto y0 = random_doubles(n, rng);
    const auto x = random_int32s(n, rng);
    const auto sum = random_doubles(n, rng);
    with_both_backends([&](int which) {
      const RollOut c = run_rolls(y0, x, 1.0, sum, /*collect=*/true);
      const RollOut p = run_rolls(y0, x, 1.0, sum, /*collect=*/false);
      const auto where = [&] {
        return ::testing::Message() << " n=" << n << " backend=" << which;
      };
      EXPECT_EQ(p.ewma_n, 0u) << where();
      EXPECT_EQ(p.holt_n, 0u) << where();
      EXPECT_EQ(p.ma_n, 0u) << where();
      EXPECT_TRUE(same_bits(p.ewma_fc, c.ewma_fc)) << "ewma fc" << where();
      EXPECT_TRUE(same_bits(p.ewma_err, c.ewma_err)) << "ewma err" << where();
      EXPECT_TRUE(same_bits(p.holt_l, c.holt_l)) << "holt level" << where();
      EXPECT_TRUE(same_bits(p.holt_t, c.holt_t)) << "holt trend" << where();
      EXPECT_TRUE(same_bits(p.holt_err, c.holt_err)) << "holt err" << where();
      EXPECT_TRUE(same_bits(p.ma_err, c.ma_err)) << "ma err" << where();
    });
  }
}

// Collecting rolls must report ascending indices of exactly the elements
// with err >= cut.
TEST(SimdOpsTest, CollectEmitsAscendingThresholdIndices) {
  Pcg32 rng(7);
  for (std::size_t n : {1u, 3u, 4u, 5u, 8u, 13u, 64u, 101u}) {
    auto fc = random_doubles(n, rng);
    const auto obs = random_int32s(n, rng);
    std::vector<double> err(n, 0.0);
    std::vector<std::uint32_t> idx(n, 0);
    const double cut = 0.0;
    const std::size_t count = simd::ewma_roll(
        fc.data(), obs.data(), 1.0, err.data(), n, 0.5, cut, idx.data());
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (err[i] >= cut) expected.push_back(static_cast<std::uint32_t>(i));
    }
    idx.resize(count);
    EXPECT_EQ(idx, expected) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Fused sketch kernels vs the unfused copy/scale/accumulate sequences.

// Each builder makes a double sketch (forecast state) or, as S = the int32
// type, an observation.

template <class S = KarySketch>
S random_kary(Pcg32& rng, std::size_t buckets = 37) {
  // Odd bucket count => odd stage slices (exercises vector remainders).
  S s(KarySketchConfig{.num_stages = 5, .num_buckets = buckets, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1);
  return s;
}

template <class S = ReversibleSketch>
S random_rs(Pcg32& rng) {
  S s(ReversibleSketchConfig{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1);
  return s;
}

template <class S = TwoDSketch>
S random_2d(Pcg32& rng) {
  S s(Sketch2dConfig{.num_stages = 3, .x_buckets = 9, .y_buckets = 7,
                     .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), rng.next(), 1);
  return s;
}

/// The double sketch S holding scale * obs: the unfused sequences' input.
template <class S, class Obs>
S widened(const Obs& obs, double scale = 1.0) {
  S out(obs.config());
  out.grid().assign_scaled(obs.grid(), scale);
  return out;
}

/// y *= c and y += c*x, per counter and stage sum: the seed's whole-sketch
/// passes.
template <class S>
void scale(S& y, double c) {
  CounterGrid& g = y.grid();
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] *= c;
  for (std::size_t h = 0; h < g.rows(); ++h) g.sums()[h] *= c;
}

template <class S>
void accumulate(S& y, const S& x, double c) {
  y.grid().accumulate(x.grid(), c);
}

/// err = obs - fc; fc = (1-a)*fc + a*obs — the unfused sequence.
template <class S>
S naive_ewma_step(S& fc, const S& obs, double alpha) {
  S err(obs);
  accumulate(err, fc, -1.0);
  scale(fc, 1.0 - alpha);
  accumulate(fc, obs, alpha);
  return err;
}

template <class S>
void expect_same_counters(const S& a, const S& b, const char* what) {
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size()) << what;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << what << " counter " << i;
  }
}

void expect_same_counters(const TwoDSketch& a, const TwoDSketch& b,
                          const char* what) {
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size()) << what;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << what << " cell " << i;
  }
}

template <class S, class Obs>
void check_ewma_fusion(S fc, const Obs& obs, const char* what) {
  S fc_naive(fc);
  S err_fused(obs.config());  // storage; overwritten by the kernel
  kernels::ewma_roll(fc.grid(), obs.grid(), 1.0, err_fused.grid(), 0.5, 0.0,
                     nullptr);
  const S err_naive = naive_ewma_step(fc_naive, widened<S>(obs), 0.5);
  expect_same_counters(err_fused, err_naive, what);
  expect_same_counters(fc, fc_naive, what);
}

TEST(SketchKernelsTest, FusedEwmaBitIdenticalToUnfusedAllSketchTypes) {
  Pcg32 rng(99);
  {
    const auto obs = random_kary<KarySketch32>(rng);
    KarySketch fc = random_kary(rng);
    check_ewma_fusion(std::move(fc), obs, "kary");
  }
  {
    const auto obs = random_rs<ReversibleSketch32>(rng);
    ReversibleSketch fc = random_rs(rng);
    check_ewma_fusion(std::move(fc), obs, "reversible");
  }
  {
    const auto obs = random_2d<TwoDSketch32>(rng);
    TwoDSketch fc = random_2d(rng);
    check_ewma_fusion(std::move(fc), obs, "twod");
  }
}

TEST(SketchKernelsTest, FusedEwmaStageSumsMatchUnfused) {
  Pcg32 rng(123);
  const auto obs = random_kary<KarySketch32>(rng);
  KarySketch fc = random_kary(rng);
  KarySketch fc_naive(fc);
  KarySketch err_fused(obs.config());
  kernels::ewma_roll(fc.grid(), obs.grid(), 1.0, err_fused.grid(), 0.5, 0.0,
                     nullptr);
  const KarySketch err_naive =
      naive_ewma_step(fc_naive, widened<KarySketch>(obs), 0.5);
  for (std::size_t h = 0; h < obs.num_stages(); ++h) {
    EXPECT_EQ(err_fused.stage_sum(h), err_naive.stage_sum(h)) << h;
    EXPECT_EQ(fc.stage_sum(h), fc_naive.stage_sum(h)) << h;
  }
}

TEST(SketchKernelsTest, FusedHoltBitIdenticalToUnfused) {
  Pcg32 rng(7);
  const double alpha = 0.5, beta = 0.2;
  const auto obs32 = random_rs<ReversibleSketch32>(rng);
  const auto obs = widened<ReversibleSketch>(obs32);
  ReversibleSketch level = random_rs(rng);
  ReversibleSketch trend = random_rs(rng);
  ReversibleSketch level_n(level), trend_n(trend);

  ReversibleSketch err_fused(obs.config());
  kernels::holt_roll(level.grid(), trend.grid(), obs32.grid(), 1.0,
                     err_fused.grid(), alpha, beta, 0.0, nullptr);

  // The seed's unfused sequence.
  ReversibleSketch forecast(level_n);
  accumulate(forecast, trend_n, 1.0);
  ReversibleSketch err_naive(obs);
  accumulate(err_naive, forecast, -1.0);
  ReversibleSketch new_level(forecast);
  scale(new_level, 1.0 - alpha);
  accumulate(new_level, obs, alpha);
  ReversibleSketch delta(new_level);
  accumulate(delta, level_n, -1.0);
  scale(trend_n, 1.0 - beta);
  accumulate(trend_n, delta, beta);
  level_n = new_level;

  expect_same_counters(err_fused, err_naive, "holt err");
  expect_same_counters(level, level_n, "holt level");
  expect_same_counters(trend, trend_n, "holt trend");
  for (std::size_t h = 0; h < obs.config().num_stages; ++h) {
    EXPECT_EQ(err_fused.stage_sum(h), err_naive.stage_sum(h)) << h;
    EXPECT_EQ(level.stage_sum(h), level_n.stage_sum(h)) << h;
    EXPECT_EQ(trend.stage_sum(h), trend_n.stage_sum(h)) << h;
  }
}

TEST(SketchKernelsTest, FusedCollectMatchesHeavyBuckets) {
  Pcg32 rng(31337);
  const auto obs = random_rs<ReversibleSketch32>(rng);
  ReversibleSketch fc = random_rs(rng);
  const double threshold = 2.0;

  with_both_backends([&](int) {
    ReversibleSketch fc_run(fc);
    ReversibleSketch err(obs.config());
    StageBuckets heavy;
    kernels::ewma_roll(fc_run.grid(), obs.grid(), 1.0, err.grid(), 0.5,
                       threshold, &heavy);
    EXPECT_EQ(heavy, heavy_buckets(err, threshold));
  });
}

TEST(SketchKernelsTest, CollectOnTwoDLeavesHeavyEmptyAndRolls) {
  Pcg32 rng(5);
  const auto obs = random_2d<TwoDSketch32>(rng);
  TwoDSketch fc = random_2d(rng);
  TwoDSketch fc_naive(fc);
  TwoDSketch err(obs.config());
  StageBuckets heavy{{1, 2, 3}};
  kernels::ewma_roll(fc.grid(), obs.grid(), 1.0, err.grid(), 0.5, 1.0,
                     &heavy);
  EXPECT_TRUE(heavy.empty());
  const TwoDSketch err_naive =
      naive_ewma_step(fc_naive, widened<TwoDSketch>(obs), 0.5);
  expect_same_counters(err, err_naive, "twod collect");
}

// The forecast state's weighted accumulate routes through the dispatched
// kernel; it must be bit-identical across backends.
TEST(SketchKernelsTest, AccumulateScaleBitIdenticalAcrossBackends) {
  Pcg32 rng(2024);
  const KarySketch a = random_kary(rng);
  const KarySketch b = random_kary(rng);
  std::vector<double> counters[2];
  with_both_backends([&](int which) {
    KarySketch t(a);
    t.grid().accumulate(b.grid(), -0.5);
    t.grid().accumulate(a.grid(), 1.25);
    counters[which].assign(t.counters().begin(), t.counters().end());
  });
  EXPECT_EQ(counters[0], counters[1]);
}

// ---------------------------------------------------------------------------
// Int32 recording counters: the rolls against the per-element expressions
// over a double copy, and the compact sketch's vector bit-run update.

/// The three rolls' per-element expressions over double observations x.
RollOut reference_rolls(const std::vector<double>& y0,
                        const std::vector<double>& x,
                        const std::vector<double>& sum) {
  const std::size_t n = y0.size();
  const double alpha = 0.3, beta = 0.2, cut = 1.5, inv_n = 1.0 / 3.0;
  RollOut o;
  o.ewma_fc = y0;
  o.ewma_err.assign(n, 0.0);
  o.holt_l = y0;
  o.holt_t = sum;
  o.holt_err.assign(n, 0.0);
  o.ma_err.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    o.ewma_err[i] = x[i] - o.ewma_fc[i];
    o.ewma_fc[i] = ((1.0 - alpha) * o.ewma_fc[i]) + (alpha * x[i]);
    if (o.ewma_err[i] >= cut) o.ewma_idx.push_back(idx);

    const double f = o.holt_l[i] + o.holt_t[i];
    o.holt_err[i] = x[i] - f;
    const double nl = ((1.0 - alpha) * f) + (alpha * x[i]);
    const double d = nl - o.holt_l[i];
    o.holt_t[i] = ((1.0 - beta) * o.holt_t[i]) + (beta * d);
    o.holt_l[i] = nl;
    if (o.holt_err[i] >= cut) o.holt_idx.push_back(idx);

    o.ma_err[i] = x[i] - inv_n * sum[i];
    if (o.ma_err[i] >= cut) o.ma_idx.push_back(idx);
  }
  return o;
}

// Every roll, every length 1..67, both backends, several scales: reading
// int32 observations as scale*double(x) leaves exactly the bits of the
// per-element expressions over the copy scale*x — state, error and the
// emitted heavy indices.
TEST(Int32KernelsTest, RollsMatchDoubleCopyOfObservations) {
  Pcg32 rng(0x1327);
  for (const double scale : {1.0, 1.5, 4.0 / 3.0}) {
    for (std::size_t n = 1; n <= 67; ++n) {
      const auto y0 = random_doubles(n, rng);
      const auto sum = random_doubles(n, rng);
      const auto x32 = random_int32s(n, rng);
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = scale * static_cast<double>(x32[i]);
      }
      const RollOut want = reference_rolls(y0, x, sum);
      with_both_backends([&](int which) {
        const RollOut got = run_rolls(y0, x32, scale, sum, /*collect=*/true);
        const auto where = [&] {
          return ::testing::Message()
                 << " n=" << n << " scale=" << scale << " backend=" << which;
        };
        EXPECT_TRUE(same_bits(got.ewma_fc, want.ewma_fc)) << where();
        EXPECT_TRUE(same_bits(got.ewma_err, want.ewma_err)) << where();
        EXPECT_EQ(got.ewma_idx, want.ewma_idx) << where();
        EXPECT_TRUE(same_bits(got.holt_l, want.holt_l)) << where();
        EXPECT_TRUE(same_bits(got.holt_t, want.holt_t)) << where();
        EXPECT_TRUE(same_bits(got.holt_err, want.holt_err)) << where();
        EXPECT_EQ(got.holt_idx, want.holt_idx) << where();
        EXPECT_TRUE(same_bits(got.ma_err, want.ma_err)) << where();
        EXPECT_EQ(got.ma_idx, want.ma_idx) << where();
      });
    }
  }
}

// The grid-level rolls and the forecaster: an int32 observation x at scale
// s yields the error sketch, forecast state and heavy buckets of the
// observation holding s*x at scale 1 (x even, so s*x is an integer: the
// collector's 1/coverage rescale of 2 of 3 routers is s = 1.5).
TEST(Int32KernelsTest, ScaledInt32ObservationMatchesScaledDoubleCopy) {
  const ReversibleSketchConfig cfg{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11};
  for (const ForecastModel model :
       {ForecastModel::kEwma, ForecastModel::kHolt,
        ForecastModel::kMovingAverage}) {
    for (const double scale : {1.0, 1.5, 2.0}) {
      Forecaster<ReversibleSketch> wide(model, 0.5, 0.2, 2);
      Forecaster<ReversibleSketch> narrow(model, 0.5, 0.2, 2);
      Pcg32 rng(77);
      for (int interval = 0; interval < 5; ++interval) {
        ReversibleSketch32 obs32(cfg);
        ReversibleSketch32 scaled(cfg);
        for (int i = 0; i < 300 + 100 * interval; ++i) {
          const std::uint64_t key = rng.next() % 64;
          const std::int32_t d = rng.chance(0.8) ? 2 : -2;
          obs32.update(key, d);
          scaled.update(key, static_cast<std::int32_t>(scale * d));
        }
        StageBuckets hw, hn;
        const ReversibleSketch* ew = wide.step(scaled, 8.0, &hw);
        const ReversibleSketch* en = narrow.step(obs32, 8.0, &hn, scale);
        ASSERT_EQ(ew == nullptr, en == nullptr);
        if (ew == nullptr) continue;
        expect_same_counters(*en, *ew, "error");
        for (std::size_t h = 0; h < cfg.num_stages; ++h) {
          EXPECT_EQ(en->stage_sum(h), ew->stage_sum(h));
        }
        EXPECT_EQ(hn, hw);
      }
    }
  }
}

/// Reference bit-run update: per bit, modulo 2^32.
void reference_bit_run(std::vector<std::int32_t>& run, std::uint64_t bits,
                       int nbits, std::int32_t delta) {
  for (int b = 0; b < nbits; ++b) {
    if (((bits >> b) & 1) != 0) {
      run[static_cast<std::size_t>(b)] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(run[static_cast<std::size_t>(b)]) +
          static_cast<std::uint32_t>(delta));
    }
  }
}

// The dispatched (AVX2 where available) masked-vector bit-run update leaves
// exactly the scalar backend's counters, and both match the per-bit
// reference, for every key width — byte multiples and ragged tails — and
// deltas that wrap.
TEST(Int32KernelsTest, BitRunKernelMatchesScalarBitForBit) {
  Pcg32 rng(0xB17);
  for (int nbits = 1; nbits <= 64; ++nbits) {
    std::vector<std::int32_t> runs[2];
    std::vector<std::int32_t> ref = random_int32s(64, rng);
    const std::vector<std::int32_t> start = ref;
    std::vector<std::pair<std::uint64_t, std::int32_t>> ops;
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t bits =
          (std::uint64_t{rng.next()} << 32) | rng.next();
      const std::int32_t delta =
          i % 7 == 0 ? std::numeric_limits<std::int32_t>::max()
                     : static_cast<std::int32_t>(rng.bounded(9)) - 4;
      ops.emplace_back(bits, delta);
      reference_bit_run(ref, bits, nbits, delta);
    }
    with_both_backends([&](int which) {
      runs[which] = start;
      for (const auto& [bits, delta] : ops) {
        simd::add_bit_run(runs[which].data(), bits, nbits, delta);
      }
    });
    EXPECT_EQ(runs[0], runs[1]) << "nbits=" << nbits;
    EXPECT_EQ(runs[1], ref) << "nbits=" << nbits;
  }
}

// The compact sketch over int32 counters records exactly the values the
// double sketch records from the same integer ops, through update() and
// update_batch(), on both backends (the bit runs take the vector kernel).
TEST(Int32KernelsTest, CompactInt32SketchMatchesDoubleSketch) {
  for (const int key_bits : {48, 64, 20}) {
    const CompactInvertibleConfig cfg{
        .key_bits = key_bits, .num_stages = 3, .bucket_bits = 6, .seed = 5};
    Pcg32 rng(static_cast<std::uint64_t>(key_bits));
    std::vector<KeyDelta> ops64;
    std::vector<BasicKeyDelta<std::int32_t>> ops32;
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t key = (std::uint64_t{rng.next()} << 32) | rng.next();
      const std::int32_t d = static_cast<std::int32_t>(rng.bounded(5)) - 2;
      ops64.push_back({key, static_cast<double>(d)});
      ops32.push_back({key, d});
    }
    CompactInvertibleSketch wide(cfg);
    wide.update_batch(ops64);
    with_both_backends([&](int which) {
      CompactInvertibleSketch32 batch(cfg), single(cfg);
      batch.update_batch(ops32);
      for (const auto& op : ops32) single.update(op.key, op.delta);
      const auto cw = wide.counters();
      const auto cb = batch.counters();
      const auto cs = single.counters();
      ASSERT_EQ(cw.size(), cb.size());
      for (std::size_t i = 0; i < cw.size(); ++i) {
        ASSERT_EQ(static_cast<double>(cb[i]), cw[i])
            << "batch counter " << i << " backend " << which;
        ASSERT_EQ(cs[i], cb[i]) << "counter " << i << " backend " << which;
      }
      for (std::size_t h = 0; h < cfg.num_stages; ++h) {
        EXPECT_EQ(batch.stage_sum(h), wide.stage_sum(h));
      }
    });
  }
}

}  // namespace
}  // namespace hifind
