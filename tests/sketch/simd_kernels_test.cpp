// Bit-identity contract of the SIMD kernel layer (sketch/simd_ops.hpp) and
// the fused sketch kernels built on it (sketch/sketch_kernels.hpp):
//  * the dispatched backend (AVX2 where available) must produce EXACTLY the
//    scalar backend's bits, for every length — including odd remainders;
//  * the fused EWMA roll over int32 observations must produce EXACTLY the
//    bits of the unfused copy/scale/accumulate sequence it replaces, run
//    over a double copy of the observation, on all three sketch shapes;
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

constexpr double kAlpha = 0.3;
constexpr double kCut = 1.5;

/// Output of the EWMA roll kernel over one input set. With `collect` the
/// kernel emits heavy candidates at kCut; without it it gets a null output
/// array and its return value is kept for checking.
struct RollOut {
  std::vector<double> fc, err;
  std::vector<std::uint32_t> idx;
  std::size_t n{0};
};

RollOut run_roll(const std::vector<double>& y0,
                 const std::vector<std::int32_t>& x, double scale,
                 bool collect) {
  const std::size_t n = y0.size();
  RollOut o;
  o.idx.assign(n, 0);
  o.fc = y0;
  o.err.assign(n, 0.0);
  o.n = simd::ewma_roll(o.fc.data(), x.data(), scale, o.err.data(), n,
                        kAlpha, kCut, collect ? o.idx.data() : nullptr);
  o.idx.resize(collect ? o.n : 0);
  return o;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every length 1..67 (covers all vector remainders and spans several full
// vector blocks): the dispatched roll must equal the scalar roll bit for
// bit.
TEST(SimdOpsTest, DispatchedBitIdenticalToScalarAllLengths) {
  Pcg32 rng(0xC0FFEE);
  for (std::size_t n = 1; n <= 67; ++n) {
    const auto y0 = random_doubles(n, rng);
    const auto x32 = random_int32s(n, rng);
    RollOut out[2];
    with_both_backends([&](int which) {
      out[which] = run_roll(y0, x32, 1.25, /*collect=*/true);
    });
    EXPECT_TRUE(same_bits(out[0].fc, out[1].fc)) << "fc n=" << n;
    EXPECT_TRUE(same_bits(out[0].err, out[1].err)) << "err n=" << n;
    EXPECT_EQ(out[0].idx, out[1].idx) << "idx n=" << n;
  }
}

// A roll given no output array emits nothing, returns 0 and leaves the
// forecast and error arrays bit-identical to the collecting call, on both
// backends and every length 1..67.
TEST(SimdOpsTest, UncollectedRollMatchesCollectingRollAllLengths) {
  Pcg32 rng(0xBADC0DE);
  for (std::size_t n = 1; n <= 67; ++n) {
    const auto y0 = random_doubles(n, rng);
    const auto x = random_int32s(n, rng);
    with_both_backends([&](int which) {
      const RollOut c = run_roll(y0, x, 1.0, /*collect=*/true);
      const RollOut p = run_roll(y0, x, 1.0, /*collect=*/false);
      const auto where = [&] {
        return ::testing::Message() << " n=" << n << " backend=" << which;
      };
      EXPECT_EQ(p.n, 0u) << where();
      EXPECT_TRUE(same_bits(p.fc, c.fc)) << "fc" << where();
      EXPECT_TRUE(same_bits(p.err, c.err)) << "err" << where();
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
// The fused EWMA kernel vs the unfused copy/scale/accumulate sequence.

// Each builder records an int32 observation sketch; its widened grid
// serves as forecast state.

KarySketch random_kary(Pcg32& rng) {
  // Odd bucket count => odd stage slices (exercises vector remainders).
  KarySketch s(
      KarySketchConfig{.num_stages = 5, .num_buckets = 37, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1);
  return s;
}

ReversibleSketch random_rs(Pcg32& rng) {
  ReversibleSketch s(ReversibleSketchConfig{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), 1);
  return s;
}

TwoDSketch random_2d(Pcg32& rng) {
  TwoDSketch s(Sketch2dConfig{.num_stages = 3, .x_buckets = 9,
                              .y_buckets = 7, .seed = 11});
  for (int i = 0; i < 200; ++i) s.update(rng.next(), rng.next(), 1);
  return s;
}

/// The double grid holding scale * obs: the unfused sequence's input.
template <class Obs>
CounterGrid widened(const Obs& obs, double scale = 1.0) {
  return CounterGrid::widened(obs.grid(), scale);
}

/// y *= c per counter and stage sum: the seed's whole-sketch pass.
void scale(CounterGrid& y, double c) {
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] *= c;
  for (std::size_t h = 0; h < y.rows(); ++h) y.sums()[h] *= c;
}

/// err = obs - fc; fc = (1-a)*fc + a*obs — the unfused sequence.
CounterGrid naive_ewma_step(CounterGrid& fc, const CounterGrid& obs,
                            double alpha) {
  CounterGrid err(obs);
  err.accumulate(fc, -1.0);
  scale(fc, 1.0 - alpha);
  fc.accumulate(obs, alpha);
  return err;
}

/// Counters and stage sums equal bit for bit.
void expect_same_grid(const CounterGrid& a, const CounterGrid& b,
                      const char* what) {
  const auto ca = a.counters();
  const auto cb = b.counters();
  ASSERT_EQ(ca.size(), cb.size()) << what;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << what << " counter " << i;
  }
  ASSERT_EQ(a.rows(), b.rows()) << what;
  for (std::size_t h = 0; h < a.rows(); ++h) {
    EXPECT_EQ(a.stage_sum(h), b.stage_sum(h)) << what << " stage " << h;
  }
}

template <class Obs>
void check_ewma_fusion(CounterGrid fc, const Obs& obs, const char* what) {
  CounterGrid fc_naive(fc);
  CounterGrid err_fused(fc);  // storage; overwritten by the kernel
  kernels::ewma_roll(fc, obs.grid(), 1.0, err_fused, 0.5, 0.0, nullptr);
  const CounterGrid err_naive = naive_ewma_step(fc_naive, widened(obs), 0.5);
  expect_same_grid(err_fused, err_naive, what);
  expect_same_grid(fc, fc_naive, what);
}

TEST(SketchKernelsTest, FusedEwmaBitIdenticalToUnfusedAllSketchTypes) {
  Pcg32 rng(99);
  {
    const auto obs = random_kary(rng);
    check_ewma_fusion(widened(random_kary(rng)), obs, "kary");
  }
  {
    const auto obs = random_rs(rng);
    check_ewma_fusion(widened(random_rs(rng)), obs, "reversible");
  }
  {
    const auto obs = random_2d(rng);
    check_ewma_fusion(widened(random_2d(rng)), obs, "twod");
  }
}

TEST(SketchKernelsTest, FusedEwmaStageSumsMatchUnfused) {
  Pcg32 rng(123);
  const auto obs = random_kary(rng);
  CounterGrid fc = widened(random_kary(rng));
  CounterGrid fc_naive(fc);
  CounterGrid err_fused(fc);  // storage; overwritten by the kernel
  kernels::ewma_roll(fc, obs.grid(), 1.0, err_fused, 0.5, 0.0, nullptr);
  const CounterGrid err_naive = naive_ewma_step(fc_naive, widened(obs), 0.5);
  for (std::size_t h = 0; h < obs.num_stages(); ++h) {
    EXPECT_EQ(err_fused.stage_sum(h), err_naive.stage_sum(h)) << h;
    EXPECT_EQ(fc.stage_sum(h), fc_naive.stage_sum(h)) << h;
  }
}

TEST(SketchKernelsTest, FusedCollectMatchesHeavyBuckets) {
  Pcg32 rng(31337);
  const auto obs = random_rs(rng);
  const CounterGrid fc = widened(random_rs(rng));
  const double threshold = 2.0;

  with_both_backends([&](int) {
    CounterGrid fc_run(fc);
    CounterGrid err(fc);
    StageBuckets heavy;
    kernels::ewma_roll(fc_run, obs.grid(), 1.0, err, 0.5, threshold, &heavy);
    EXPECT_EQ(heavy, err.heavy_buckets(threshold));
  });
}

TEST(SketchKernelsTest, CollectOnTwoDLeavesHeavyEmptyAndRolls) {
  Pcg32 rng(5);
  const auto obs = random_2d(rng);
  CounterGrid fc = widened(random_2d(rng));
  CounterGrid fc_naive(fc);
  CounterGrid err(fc);
  StageBuckets heavy{{1, 2, 3}};
  kernels::ewma_roll(fc, obs.grid(), 1.0, err, 0.5, 1.0, &heavy);
  EXPECT_TRUE(heavy.empty());
  const CounterGrid err_naive = naive_ewma_step(fc_naive, widened(obs), 0.5);
  expect_same_grid(err, err_naive, "twod collect");
}

// ---------------------------------------------------------------------------
// Int32 recording counters: the roll against the per-element expressions
// over a double copy, and the vector bit-run update of the compact sketch.

/// The EWMA roll's per-element expressions over double observations x.
RollOut reference_roll(const std::vector<double>& y0,
                       const std::vector<double>& x) {
  const std::size_t n = y0.size();
  RollOut o;
  o.fc = y0;
  o.err.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    o.err[i] = x[i] - o.fc[i];
    o.fc[i] = ((1.0 - kAlpha) * o.fc[i]) + (kAlpha * x[i]);
    if (o.err[i] >= kCut) o.idx.push_back(static_cast<std::uint32_t>(i));
  }
  return o;
}

// Every length 1..67, both backends, several scales: reading int32
// observations as scale*double(x) leaves exactly the bits of the
// per-element expressions over the copy scale*x — forecast, error and the
// emitted heavy indices.
TEST(Int32KernelsTest, RollsMatchDoubleCopyOfObservations) {
  Pcg32 rng(0x1327);
  for (const double scale : {1.0, 1.5, 4.0 / 3.0}) {
    for (std::size_t n = 1; n <= 67; ++n) {
      const auto y0 = random_doubles(n, rng);
      const auto x32 = random_int32s(n, rng);
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = scale * static_cast<double>(x32[i]);
      }
      const RollOut want = reference_roll(y0, x);
      with_both_backends([&](int which) {
        const RollOut got = run_roll(y0, x32, scale, /*collect=*/true);
        const auto where = [&] {
          return ::testing::Message()
                 << " n=" << n << " scale=" << scale << " backend=" << which;
        };
        EXPECT_TRUE(same_bits(got.fc, want.fc)) << where();
        EXPECT_TRUE(same_bits(got.err, want.err)) << where();
        EXPECT_EQ(got.idx, want.idx) << where();
      });
    }
  }
}

// The grid-level roll and the forecaster: an int32 observation x at scale
// s yields the error grid, forecast state and heavy buckets of the
// observation holding s*x at scale 1 (x even, so s*x is an integer: the
// collector's 1/coverage rescale of 2 of 3 routers is s = 1.5).
TEST(Int32KernelsTest, ScaledInt32ObservationMatchesScaledDoubleCopy) {
  const ReversibleSketchConfig cfg{
      .key_bits = 32, .num_stages = 4, .bucket_bits = 8, .seed = 11};
  for (const double scale : {1.0, 1.5, 2.0}) {
    Forecaster<ReversibleSketch> wide(0.5);
    Forecaster<ReversibleSketch> narrow(0.5);
    Pcg32 rng(77);
    for (int interval = 0; interval < 5; ++interval) {
      ReversibleSketch obs32(cfg);
      ReversibleSketch scaled(cfg);
      for (int i = 0; i < 300 + 100 * interval; ++i) {
        const std::uint64_t key = rng.next() % 64;
        const std::int32_t d = rng.chance(0.8) ? 2 : -2;
        obs32.update(key, d);
        scaled.update(key, static_cast<std::int32_t>(scale * d));
      }
      StageBuckets hw, hn;
      const CounterGrid* ew = wide.step(scaled, 8.0, &hw);
      const CounterGrid* en = narrow.step(obs32, 8.0, &hn, scale);
      ASSERT_EQ(ew == nullptr, en == nullptr);
      if (ew == nullptr) continue;
      expect_same_grid(*en, *ew, "error");
      EXPECT_EQ(hn, hw);
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

}  // namespace
}  // namespace hifind
