// CompactInvertibleSketch + CompactExtraction contract tests: heavy keys
// recovered by direct bucket decode (no sweep), COMBINE linearity exact
// enough for shard-merge bit-identity, and extraction that is a pure
// function of (sketch, counters, threshold, options), with deterministic
// max_work truncation.
#include "sketch/compact_invertible.hpp"

#include "sketch/sketch_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace hifind {
namespace {

CompactInvertibleConfig ci48(std::uint64_t seed = 1) {
  return CompactInvertibleConfig{.key_bits = 48, .num_stages = 3,
                                 .bucket_bits = 10, .seed = seed};
}

CompactInvertibleConfig ci64(std::uint64_t seed = 1) {
  return CompactInvertibleConfig{.key_bits = 64, .num_stages = 3,
                                 .bucket_bits = 10, .seed = seed};
}

/// Background: n light keys, one update each.
void feed_noise(CompactInvertibleSketch& s, int n, std::uint64_t seed,
                int bits) {
  Pcg32 rng(seed);
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  for (int i = 0; i < n; ++i) s.update(rng.next64() & mask, 1.0);
}

/// A sketch's own counters as the double grid extraction reads.
CounterGrid wide(const CompactInvertibleSketch& s) {
  return CounterGrid::widened(s.grid(), 1.0);
}

std::set<std::uint64_t> inferred_keys(const InferenceResult& r) {
  std::set<std::uint64_t> keys;
  for (const auto& k : r.keys) keys.insert(k.key);
  return keys;
}

TEST(CompactInvertibleSketch, RejectsInvalidShapes) {
  EXPECT_THROW(CompactInvertibleSketch(CompactInvertibleConfig{
                   .key_bits = 4, .num_stages = 3, .bucket_bits = 10}),
               std::invalid_argument);
  EXPECT_THROW(CompactInvertibleSketch(CompactInvertibleConfig{
                   .key_bits = 48, .num_stages = 0, .bucket_bits = 10}),
               std::invalid_argument);
  EXPECT_THROW(CompactInvertibleSketch(CompactInvertibleConfig{
                   .key_bits = 48, .num_stages = 9, .bucket_bits = 10}),
               std::invalid_argument);
  EXPECT_THROW(CompactInvertibleSketch(CompactInvertibleConfig{
                   .key_bits = 48, .num_stages = 3, .bucket_bits = 0}),
               std::invalid_argument);
}

TEST(CompactInvertibleSketch, EstimateRecoversHeavyKeyUnderNoise) {
  for (const auto& cfg : {ci48(), ci64()}) {
    CompactInvertibleSketch s(cfg);
    const std::uint64_t heavy = 0x0000ABCD1234ULL;
    for (int i = 0; i < 500; ++i) s.update(heavy, 1.0);
    feed_noise(s, 3000, 7, cfg.key_bits);
    EXPECT_NEAR(s.estimate(heavy), 500.0, 60.0)
        << "key_bits=" << cfg.key_bits;
  }
}

TEST(CompactInvertibleSketch, DecodeRecoversDominantKey) {
  CompactInvertibleSketch s(ci48());
  // Keys chosen with both set and cleared bits in every byte.
  const std::uint64_t heavy = 0x00005A5AC3C3ULL;
  for (int i = 0; i < 400; ++i) s.update(heavy, 1.0);
  feed_noise(s, 1000, 11, 48);
  // The heavy key must decode from at least one of its stage buckets
  // (majority decode survives light collision noise).
  const CounterGrid counters = wide(s);
  bool recovered = false;
  for (std::size_t h = 0; h < s.config().num_stages; ++h) {
    if (s.decode_bucket(counters, h, s.bucket_of(h, heavy)) == heavy) {
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered);
}

TEST(CompactInvertibleSketch, ExtractionFindsAllHeavyKeysNoSweep) {
  CompactInvertibleSketch s(ci48());
  Pcg32 rng(3);
  std::set<std::uint64_t> heavies;
  while (heavies.size() < 12) {
    heavies.insert(rng.next64() & ((std::uint64_t{1} << 48) - 1));
  }
  for (const std::uint64_t k : heavies) {
    for (int i = 0; i < 300; ++i) s.update(k, 1.0);
  }
  feed_noise(s, 4000, 13, 48);
  const InferenceResult r = infer_heavy_keys(s, wide(s), 150.0);
  const auto found = inferred_keys(r);
  for (const std::uint64_t k : heavies) {
    EXPECT_TRUE(found.count(k)) << "missed heavy key " << k;
  }
  EXPECT_FALSE(r.truncated);
  EXPECT_FALSE(r.work_exhausted);
  EXPECT_GT(r.work_used, 0u);
}

TEST(CompactInvertibleSketch, NegativeDeltasAndScaleStayLinear) {
  // SYN - SYN/ACK recording and the collector's 1/coverage rescale both rely
  // on the counters being plain linear accumulators.
  CompactInvertibleSketch s(ci48());
  const std::uint64_t key = 0x1111222233ULL;
  for (int i = 0; i < 200; ++i) s.update(key, 1.0);
  for (int i = 0; i < 80; ++i) s.update(key, -1.0);
  EXPECT_NEAR(s.estimate(key), 120.0, 1e-6);
  EXPECT_NEAR(s.estimate(key, 0.5), 60.0, 1e-6);
}

TEST(CompactInvertibleSketch, UpdateBatchBitIdenticalToScalar) {
  Pcg32 rng(17);
  std::vector<KeyDelta> ops(5000);
  for (auto& op : ops) {
    op.key = rng.next64() & ((std::uint64_t{1} << 48) - 1);
    op.delta = (rng.next() & 1) ? 1 : -1;
  }
  CompactInvertibleSketch scalar(ci48()), batch(ci48());
  for (const auto& op : ops) scalar.update(op.key, op.delta);
  batch.update_batch(ops);
  const auto a = scalar.counters();
  const auto b = batch.counters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "counter " << i;
  }
  EXPECT_EQ(scalar.update_count(), batch.update_count());
}

TEST(CompactInvertibleSketch, CombineIsExactlyLinear) {
  // combine(two half-streams) must be BIT-IDENTICAL to one sketch that saw
  // the whole stream — the property the shard merge and the multi-router
  // aggregation are built on. Unit deltas make every partial sum exact.
  CompactInvertibleSketch whole(ci48()), a(ci48()), b(ci48());
  Pcg32 rng(23);
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.next64() & ((std::uint64_t{1} << 48) - 1);
    const std::int32_t delta = (rng.next() & 1) ? 1 : -1;
    whole.update(key, delta);
    ((i & 1) ? a : b).update(key, delta);
  }
  const std::vector<const CompactInvertibleSketch*> terms = {&a, &b};
  const CompactInvertibleSketch merged =
      CompactInvertibleSketch::combine(terms);
  const auto w = whole.counters();
  const auto m = merged.counters();
  ASSERT_EQ(w.size(), m.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], m[i]) << "counter " << i;
  }
  for (std::size_t h = 0; h < whole.config().num_stages; ++h) {
    EXPECT_EQ(whole.stage_sum(h), merged.stage_sum(h)) << "stage " << h;
  }
}

TEST(CompactInvertibleSketch, CombineIntoMatchesCombineAndChecksAliasing) {
  CompactInvertibleSketch a(ci48()), b(ci48());
  feed_noise(a, 2000, 5, 48);
  feed_noise(b, 2000, 6, 48);
  const std::vector<const CompactInvertibleSketch*> terms = {&a, &b};
  const CompactInvertibleSketch fresh =
      CompactInvertibleSketch::combine(terms);
  CompactInvertibleSketch dest(ci48());
  dest.update(0x42, 7.0);  // stale state combine_into must fully overwrite
  dest.combine_into(terms);
  const auto f = fresh.counters();
  const auto d = dest.counters();
  ASSERT_EQ(f.size(), d.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(f[i], d[i]) << "counter " << i;
  }
  // Destination may alias term 0 only.
  const std::vector<const CompactInvertibleSketch*> bad = {&a, &dest};
  EXPECT_THROW(dest.combine_into(bad), std::invalid_argument);
}

TEST(CompactInvertibleSketch, SerializeRoundTripViaCounters) {
  CompactInvertibleSketch s(ci64());
  feed_noise(s, 3000, 31, 64);
  CompactInvertibleSketch back(ci64());
  back.load_counters(s.counters());
  const auto a = s.counters();
  const auto b = back.counters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "counter " << i;
  }
  for (std::size_t h = 0; h < s.config().num_stages; ++h) {
    EXPECT_EQ(s.stage_sum(h), back.stage_sum(h)) << "stage " << h;
  }
  EXPECT_THROW(back.load_counters(s.counters().subspan(1)),
               std::invalid_argument);
}

// ---- CompactExtraction determinism ---------------------------------------

CompactInvertibleSketch attack_sketch(std::uint64_t seed = 41) {
  CompactInvertibleSketch s(ci48(seed));
  Pcg32 rng(seed);
  for (int k = 0; k < 20; ++k) {
    const std::uint64_t key = rng.next64() & ((std::uint64_t{1} << 48) - 1);
    for (int i = 0; i < 250; ++i) s.update(key, 1.0);
  }
  feed_noise(s, 5000, seed + 1, 48);
  return s;
}

void expect_same_result(const InferenceResult& a, const InferenceResult& b,
                        const char* what) {
  ASSERT_EQ(a.keys.size(), b.keys.size()) << what;
  for (std::size_t i = 0; i < a.keys.size(); ++i) {
    EXPECT_EQ(a.keys[i].key, b.keys[i].key) << what << " key " << i;
    EXPECT_EQ(a.keys[i].estimate, b.keys[i].estimate) << what << " est " << i;
  }
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.work_exhausted, b.work_exhausted) << what;
  EXPECT_EQ(a.work_used, b.work_used) << what;
  EXPECT_EQ(a.heavy_bucket_total, b.heavy_bucket_total) << what;
  EXPECT_EQ(a.heavy_buckets_dropped, b.heavy_buckets_dropped) << what;
}

TEST(CompactExtraction, MaxWorkTruncationIsPureFunctionOfInputs) {
  const CompactInvertibleSketch s = attack_sketch();
  const double t = 150.0;
  InferenceOptions opts;
  opts.max_work = 120;  // far below the full extraction's work
  const InferenceResult first = infer_heavy_keys(s, wide(s), t, opts);
  EXPECT_TRUE(first.work_exhausted);
  // The cap is checked before each step (same as the DFS), so the meter may
  // overshoot by at most one step: decode (1 + 48/8 key words) + screen (2).
  EXPECT_LE(first.work_used, opts.max_work + 9);
  // Same truncation point on a re-run: the meter alone decides it.
  const CounterGrid counters = wide(s);
  CompactExtraction e;
  e.begin(s, counters, t, opts);
  e.run();
  expect_same_result(first, e.take_result(), "re-run");
}

TEST(CompactExtraction, MaxHeavyPerStageKeepsLargestBuckets) {
  const CompactInvertibleSketch s = attack_sketch();
  InferenceOptions opts;
  opts.max_heavy_per_stage = 4;
  const InferenceResult capped = infer_heavy_keys(s, wide(s), 150.0, opts);
  const InferenceResult full = infer_heavy_keys(s, wide(s), 150.0);
  EXPECT_GT(capped.heavy_buckets_dropped, 0u);
  EXPECT_LT(capped.keys.size(), full.keys.size());
  // Every capped key is a full-run key (the cap only drops work, it never
  // invents candidates).
  const auto full_keys = inferred_keys(full);
  for (const auto& k : capped.keys) {
    EXPECT_TRUE(full_keys.count(k.key)) << k.key;
  }
}

TEST(CompactExtraction, VerifierScreensCandidates) {
  const CompactInvertibleSketch s = attack_sketch();
  InferenceOptions opts;
  opts.verifier = [](std::uint64_t, double) { return false; };
  const InferenceResult r = infer_heavy_keys(s, wide(s), 150.0, opts);
  EXPECT_EQ(r.keys.size(), 0u);
  EXPECT_GT(r.work_used, 0u);  // decode + screen work still metered
}

TEST(CompactExtraction, DuplicateDecodesEmittedOnce) {
  // One dominant key in several stages decodes from each of its buckets;
  // the result must carry it exactly once.
  CompactInvertibleSketch s(ci48());
  const std::uint64_t heavy = 0x00C0FFEE1234ULL;
  for (int i = 0; i < 1000; ++i) s.update(heavy, 1.0);
  const InferenceResult r = infer_heavy_keys(s, wide(s), 500.0);
  std::size_t count = 0;
  for (const auto& k : r.keys) count += (k.key == heavy) ? 1 : 0;
  EXPECT_EQ(count, 1u);
}

TEST(CompactExtraction, BeginRejectsGridOfAnotherShape) {
  // Decode indexes the grid's key-bit runs through the sketch's shape, so
  // begin() checks it once, on both entry points.
  const CompactInvertibleSketch s = attack_sketch();
  const CompactInvertibleSketch other(ci64());
  CompactExtraction e;
  EXPECT_THROW(e.begin(s, wide(other), 150.0, InferenceOptions{}),
               std::invalid_argument);
  EXPECT_THROW(infer_heavy_keys(s, wide(other), 150.0), std::invalid_argument);
  InvertibleSketchConfig cfg;
  cfg.kind = SketchBackendKind::kCompact;
  cfg.compact = ci48(41);
  const InvertibleSketch inv(cfg);
  ReverseEngine engine;
  EXPECT_THROW(engine.begin(inv, wide(other), 150.0, InferenceOptions{}),
               std::invalid_argument);
  cfg.kind = SketchBackendKind::kReversible;
  EXPECT_THROW(engine.begin(InvertibleSketch(cfg), wide(other), 150.0,
                            InferenceOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hifind
