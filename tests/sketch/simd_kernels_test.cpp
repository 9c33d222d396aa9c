// Bit-identity contract of the SIMD kernel layer (sketch/simd_ops.hpp) and
// the fused sketch kernels built on it (sketch/sketch_kernels.hpp):
//  * the dispatched backend (AVX2 where available) must produce EXACTLY the
//    scalar backend's bits, for every length — including odd remainders;
//  * the fused rolls must produce EXACTLY the bits of the unfused
//    copy/scale/accumulate sequences they replace, on all three sketch types;
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

RollOut run_rolls(const std::vector<double>& y0, const std::vector<double>& x,
                  const std::vector<double>& sum, bool collect) {
  const std::size_t n = y0.size();
  const double alpha = 0.3, beta = 0.2, cut = 1.5, inv_n = 1.0 / 3.0;
  RollOut o;
  o.ewma_idx.assign(n, 0);
  o.holt_idx.assign(n, 0);
  o.ma_idx.assign(n, 0);
  o.ewma_fc = y0;
  o.ewma_err.assign(n, 0.0);
  o.ewma_n = simd::ewma_roll(o.ewma_fc.data(), x.data(), o.ewma_err.data(), n,
                             alpha, cut,
                             collect ? o.ewma_idx.data() : nullptr);
  o.holt_l = y0;
  o.holt_t = sum;
  o.holt_err.assign(n, 0.0);
  o.holt_n = simd::holt_roll(o.holt_l.data(), o.holt_t.data(), x.data(),
                             o.holt_err.data(), n, alpha, beta, cut,
                             collect ? o.holt_idx.data() : nullptr);
  o.ma_err.assign(n, 0.0);
  o.ma_n = simd::ma_roll(sum.data(), x.data(), o.ma_err.data(), n, inv_n, cut,
                         collect ? o.ma_idx.data() : nullptr);
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
    const auto sum = random_doubles(n, rng);
    const double c = 0.625, a = 0.375, b = -1.0;

    struct Out {
      std::vector<double> scale_y, acc_y, axpby_y;
      RollOut rolls;
    } out[2];

    with_both_backends([&](int which) {
      Out& o = out[which];
      o.scale_y = y0;
      simd::scale(o.scale_y.data(), n, c);
      o.acc_y = y0;
      simd::accumulate(o.acc_y.data(), x.data(), n, c);
      o.axpby_y = y0;
      simd::axpby(o.axpby_y.data(), x.data(), n, a, b);
      o.rolls = run_rolls(y0, x, sum, /*collect=*/true);
    });

    EXPECT_EQ(out[0].scale_y, out[1].scale_y) << "scale n=" << n;
    EXPECT_EQ(out[0].acc_y, out[1].acc_y) << "accumulate n=" << n;
    EXPECT_EQ(out[0].axpby_y, out[1].axpby_y) << "axpby n=" << n;
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
    const auto x = random_doubles(n, rng);
    const auto sum = random_doubles(n, rng);
    with_both_backends([&](int which) {
      const RollOut c = run_rolls(y0, x, sum, /*collect=*/true);
      const RollOut p = run_rolls(y0, x, sum, /*collect=*/false);
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
    const auto obs = random_doubles(n, rng);
    std::vector<double> err(n, 0.0);
    std::vector<std::uint32_t> idx(n, 0);
    const double cut = 0.0;
    const std::size_t count = simd::ewma_roll(
        fc.data(), obs.data(), err.data(), n, 0.5, cut, idx.data());
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

KarySketch random_kary(Pcg32& rng, std::size_t buckets = 37) {
  // Odd bucket count => odd stage slices (exercises vector remainders).
  KarySketch s(KarySketchConfig{.num_stages = 5, .num_buckets = buckets,
                                .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1.0);
  return s;
}

ReversibleSketch random_rs(Pcg32& rng) {
  ReversibleSketch s(ReversibleSketchConfig{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1.0);
  return s;
}

TwoDSketch random_2d(Pcg32& rng) {
  TwoDSketch s(Sketch2dConfig{.num_stages = 3, .x_buckets = 9, .y_buckets = 7,
                              .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), rng.next(), 1.0);
  return s;
}

/// err = obs - fc; fc = (1-a)*fc + a*obs — the unfused sequence.
template <class S>
S naive_ewma_step(S& fc, const S& obs, double alpha) {
  S err(obs);
  err.accumulate(fc, -1.0);
  fc.scale(1.0 - alpha);
  fc.accumulate(obs, alpha);
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

template <class S>
void check_ewma_fusion(S fc, const S& obs, const char* what) {
  S fc_naive(fc);
  S err_fused(obs);  // storage; overwritten by the kernel
  kernels::ewma_roll(fc.grid(), obs.grid(), err_fused.grid(), 0.5, 0.0,
                     nullptr);
  const S err_naive = naive_ewma_step(fc_naive, obs, 0.5);
  expect_same_counters(err_fused, err_naive, what);
  expect_same_counters(fc, fc_naive, what);
}

TEST(SketchKernelsTest, FusedEwmaBitIdenticalToUnfusedAllSketchTypes) {
  Pcg32 rng(99);
  {
    const KarySketch obs = random_kary(rng);
    KarySketch fc = random_kary(rng);
    check_ewma_fusion(std::move(fc), obs, "kary");
  }
  {
    const ReversibleSketch obs = random_rs(rng);
    ReversibleSketch fc = random_rs(rng);
    check_ewma_fusion(std::move(fc), obs, "reversible");
  }
  {
    const TwoDSketch obs = random_2d(rng);
    TwoDSketch fc = random_2d(rng);
    check_ewma_fusion(std::move(fc), obs, "twod");
  }
}

TEST(SketchKernelsTest, FusedEwmaStageSumsMatchUnfused) {
  Pcg32 rng(123);
  const KarySketch obs = random_kary(rng);
  KarySketch fc = random_kary(rng);
  KarySketch fc_naive(fc);
  KarySketch err_fused(obs);
  kernels::ewma_roll(fc.grid(), obs.grid(), err_fused.grid(), 0.5, 0.0,
                     nullptr);
  const KarySketch err_naive = naive_ewma_step(fc_naive, obs, 0.5);
  for (std::size_t h = 0; h < obs.num_stages(); ++h) {
    EXPECT_EQ(err_fused.stage_sum(h), err_naive.stage_sum(h)) << h;
    EXPECT_EQ(fc.stage_sum(h), fc_naive.stage_sum(h)) << h;
  }
}

TEST(SketchKernelsTest, FusedHoltBitIdenticalToUnfused) {
  Pcg32 rng(7);
  const double alpha = 0.5, beta = 0.2;
  const ReversibleSketch obs = random_rs(rng);
  ReversibleSketch level = random_rs(rng);
  ReversibleSketch trend = random_rs(rng);
  ReversibleSketch level_n(level), trend_n(trend);

  ReversibleSketch err_fused(obs);
  kernels::holt_roll(level.grid(), trend.grid(), obs.grid(), err_fused.grid(),
                     alpha, beta, 0.0, nullptr);

  // The seed's unfused sequence.
  ReversibleSketch forecast(level_n);
  forecast.accumulate(trend_n, 1.0);
  ReversibleSketch err_naive(obs);
  err_naive.accumulate(forecast, -1.0);
  ReversibleSketch new_level(forecast);
  new_level.scale(1.0 - alpha);
  new_level.accumulate(obs, alpha);
  ReversibleSketch delta(new_level);
  delta.accumulate(level_n, -1.0);
  trend_n.scale(1.0 - beta);
  trend_n.accumulate(delta, beta);
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
  const ReversibleSketch obs = random_rs(rng);
  ReversibleSketch fc = random_rs(rng);
  const double threshold = 2.0;

  with_both_backends([&](int) {
    ReversibleSketch fc_run(fc);
    ReversibleSketch err(obs);
    StageBuckets heavy;
    kernels::ewma_roll(fc_run.grid(), obs.grid(), err.grid(), 0.5, threshold,
                       &heavy);
    EXPECT_EQ(heavy, heavy_buckets(err, threshold));
  });
}

TEST(SketchKernelsTest, CollectOnTwoDLeavesHeavyEmptyAndRolls) {
  Pcg32 rng(5);
  const TwoDSketch obs = random_2d(rng);
  TwoDSketch fc = random_2d(rng);
  TwoDSketch fc_naive(fc);
  TwoDSketch err(obs);
  StageBuckets heavy{{1, 2, 3}};
  kernels::ewma_roll(fc.grid(), obs.grid(), err.grid(), 0.5, 1.0, &heavy);
  EXPECT_TRUE(heavy.empty());
  const TwoDSketch err_naive = naive_ewma_step(fc_naive, obs, 0.5);
  expect_same_counters(err, err_naive, "twod collect");
}

// accumulate/scale now route through the dispatched kernels; linearity must
// hold bit-identically across backends.
TEST(SketchKernelsTest, AccumulateScaleBitIdenticalAcrossBackends) {
  Pcg32 rng(2024);
  const KarySketch a = random_kary(rng);
  const KarySketch b = random_kary(rng);
  std::vector<double> counters[2];
  with_both_backends([&](int which) {
    KarySketch t(a);
    t.accumulate(b, -0.5);
    t.scale(1.25);
    counters[which].assign(t.counters().begin(), t.counters().end());
  });
  EXPECT_EQ(counters[0], counters[1]);
}

// ---------------------------------------------------------------------------
// Int32 recording counters: the int32-observation rolls against rolling a
// double copy, and the compact sketch's vector bit-run update.

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

// Every roll, every length 1..67, both backends, several scales: reading
// int32 observations as scale*double(x) leaves exactly the bits of the
// double kernel rolling the copy scale*x — state, error and the emitted
// heavy indices.
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
      with_both_backends([&](int which) {
        const RollOut want = run_rolls(y0, x, sum, /*collect=*/true);
        const double alpha = 0.3, beta = 0.2, cut = 1.5, inv_n = 1.0 / 3.0;
        RollOut got;
        got.ewma_idx.assign(n, 0);
        got.holt_idx.assign(n, 0);
        got.ma_idx.assign(n, 0);
        got.ewma_fc = y0;
        got.ewma_err.assign(n, 0.0);
        got.ewma_n = simd::ewma_roll_i32(got.ewma_fc.data(), x32.data(), scale,
                                         got.ewma_err.data(), n, alpha, cut,
                                         got.ewma_idx.data());
        got.holt_l = y0;
        got.holt_t = sum;
        got.holt_err.assign(n, 0.0);
        got.holt_n = simd::holt_roll_i32(
            got.holt_l.data(), got.holt_t.data(), x32.data(), scale,
            got.holt_err.data(), n, alpha, beta, cut, got.holt_idx.data());
        got.ma_err.assign(n, 0.0);
        got.ma_n = simd::ma_roll_i32(sum.data(), x32.data(), scale,
                                     got.ma_err.data(), n, inv_n, cut,
                                     got.ma_idx.data());
        got.ewma_idx.resize(got.ewma_n);
        got.holt_idx.resize(got.holt_n);
        got.ma_idx.resize(got.ma_n);
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

// The grid-level rolls and the forecaster: an int32 observation at scale s
// yields the error sketch, forecast state and heavy buckets of a double
// observation holding s*x (built as COMBINE with coefficient s builds it).
TEST(Int32KernelsTest, ScaledInt32ObservationMatchesScaledDoubleCopy) {
  const ReversibleSketchConfig cfg{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11};
  for (const ForecastModel model :
       {ForecastModel::kEwma, ForecastModel::kHolt,
        ForecastModel::kMovingAverage}) {
    for (const double scale : {1.0, 1.5}) {
      Forecaster<ReversibleSketch> wide(model, 0.5, 0.2, 2);
      Forecaster<ReversibleSketch> narrow(model, 0.5, 0.2, 2);
      Pcg32 rng(77);
      for (int interval = 0; interval < 5; ++interval) {
        ReversibleSketch32 obs32(cfg);
        ReversibleSketch obs64(cfg);
        for (int i = 0; i < 300 + 100 * interval; ++i) {
          const std::uint64_t key = rng.next() % 64;
          const std::int32_t d = rng.chance(0.8) ? 1 : -1;
          obs32.update(key, d);
          obs64.update(key, d);
        }
        obs64.scale(scale);
        StageBuckets hw, hn;
        const ReversibleSketch* ew = wide.step(obs64, 8.0, &hw);
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
  Forecaster<KarySketch> f(ForecastModel::kEwma);
  const KarySketch obs(KarySketchConfig{});
  EXPECT_THROW(f.step(obs, 0.0, nullptr, 2.0), std::invalid_argument);
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
