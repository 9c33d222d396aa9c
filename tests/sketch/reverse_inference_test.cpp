#include "sketch/reverse_inference.hpp"

#include "sketch/kary_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "common/types.hpp"

namespace hifind {
namespace {

ReversibleSketchConfig rs48(std::uint64_t seed = 1) {
  return ReversibleSketchConfig{.key_bits = 48, .num_stages = 6,
                                .bucket_bits = 12, .seed = seed};
}

ReversibleSketchConfig rs64(std::uint64_t seed = 1) {
  return ReversibleSketchConfig{.key_bits = 64, .num_stages = 6,
                                .bucket_bits = 16, .seed = seed};
}

/// A sketch's own counters as the double grid the reversal engines read.
CounterGrid wide(const ReversibleSketch& s) {
  return CounterGrid::widened(s.grid(), 1.0);
}

bool contains_key(const InferenceResult& r, std::uint64_t key) {
  return std::any_of(r.keys.begin(), r.keys.end(),
                     [key](const HeavyKey& h) { return h.key == key; });
}

TEST(ReverseInferenceTest, EmptySketchYieldsNothing) {
  ReversibleSketch s(rs48());
  const InferenceResult r = infer_heavy_keys(s, wide(s), 10.0);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_FALSE(r.truncated);
}

TEST(ReverseInferenceTest, RecoversSingleHeavyKeyWithStrictIntersection) {
  // With stage_slack = 0 a candidate must hit the heavy bucket in EVERY
  // stage; near-collision keys (differing in one mangled word) survive only
  // with probability (1/4)^6, so recovery is essentially exact.
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 44, 7), 1433);
  s.update(key, 500.0);
  InferenceOptions strict;
  strict.stage_slack = 0;
  const InferenceResult r = infer_heavy_keys(s, wide(s), 100.0, strict);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0].key, key);
  EXPECT_NEAR(r.keys[0].estimate, 500.0, 1e-6);
}

TEST(ReverseInferenceTest, SlackAdmitsNearCollisionsThatVerificationRemoves) {
  // With stage_slack = 1 (the production default, tolerant of one corrupted
  // stage) a handful of keys sharing 5 of 6 stage buckets with the true key
  // are also emitted. This is the documented contract: bare inference is a
  // small superset, and the paired verification sketch — an independent
  // full-key hash — screens it down to the true key.
  ReversibleSketch s(rs48());
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 99});
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 44, 7), 1433);
  s.update(key, 500.0);
  verif.update(key, 500.0);
  const InferenceResult r = infer_heavy_keys(s, wide(s), 100.0);
  ASSERT_GE(r.keys.size(), 1u);
  std::vector<HeavyKey> screened;
  for (const HeavyKey& k : r.keys) {
    if (verif.estimate(k.key) >= 100.0) screened.push_back(k);
  }
  ASSERT_EQ(screened.size(), 1u);
  EXPECT_EQ(screened[0].key, key);
}

TEST(ReverseInferenceTest, RecoversHeavyKeysUnderBackgroundNoise) {
  ReversibleSketch s(rs48(3));
  Pcg32 rng(29);
  for (int i = 0; i < 30000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  std::set<std::uint64_t> heavy;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t key =
        pack_ip_port(IPv4(200, 1, 1, static_cast<std::uint8_t>(i)), 80);
    heavy.insert(key);
    s.update(key, 400.0 + 50.0 * i);
  }
  const InferenceResult r = infer_heavy_keys(s, wide(s), 200.0);
  for (const std::uint64_t key : heavy) {
    EXPECT_TRUE(contains_key(r, key)) << format_key(KeyKind::DipDport, key);
  }
}

TEST(ReverseInferenceTest, VerificationScreensToExactlyThePlantedKeys) {
  ReversibleSketch s(rs48(5));
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 101});
  std::set<std::uint64_t> heavy;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t key = pack_ip_port(IPv4(10, 0, 3, i), 22);
    heavy.insert(key);
    s.update(key, 1000.0);
    verif.update(key, 1000.0);
  }
  const InferenceResult r = infer_heavy_keys(s, wide(s), 500.0);
  std::set<std::uint64_t> screened;
  for (const HeavyKey& h : r.keys) {
    EXPECT_GE(h.estimate, 500.0);
    if (verif.estimate(h.key) >= 500.0) screened.insert(h.key);
  }
  EXPECT_EQ(screened, heavy);
}

TEST(ReverseInferenceTest, Works64Bit) {
  ReversibleSketch s(rs64(7));
  Pcg32 rng(41);
  for (int i = 0; i < 30000; ++i) s.update(rng.next64(), 1.0);
  const std::uint64_t key = pack_ip_ip(IPv4(98, 198, 251, 168),
                                       IPv4(129, 105, 9, 10));
  s.update(key, 900.0);
  const InferenceResult r = infer_heavy_keys(s, wide(s), 400.0);
  EXPECT_TRUE(contains_key(r, key));
}

TEST(ReverseInferenceTest, NegativeMassIsInvisible) {
  ReversibleSketch s(rs48());
  s.update(1234, -5000.0);  // e.g. SYN/ACK surplus
  const InferenceResult r = infer_heavy_keys(s, wide(s), 100.0);
  EXPECT_TRUE(r.keys.empty());
}

TEST(ReverseInferenceTest, StageSlackRecoversKeyWithOneCorruptedStage) {
  // Corrupt the heavy key's bucket in ONE stage by brute-forcing a key that
  // collides with it there, and loading that collider with negative mass
  // (e.g. a benign service completing handshakes). Strict intersection
  // (r = 0) loses the key; slack r = 1 — the production default — recovers
  // it. This is the failure mode stage_slack exists for.
  ReversibleSketch s(rs48(11));
  const std::uint64_t key = pack_ip_port(IPv4(44, 55, 66, 77), 445);
  s.update(key, 800.0);

  std::uint64_t collider = 0;
  for (std::uint64_t k = 0;; ++k) {
    if (k != key && s.bucket_of(0, k) == s.bucket_of(0, key) &&
        s.bucket_of(1, k) != s.bucket_of(1, key)) {
      collider = k;
      break;
    }
  }
  s.update(collider, -900.0);  // drags the stage-0 bucket below threshold

  InferenceOptions strict;
  strict.stage_slack = 0;
  InferenceOptions slack1;
  slack1.stage_slack = 1;
  EXPECT_FALSE(contains_key(infer_heavy_keys(s, wide(s), 400.0, strict), key))
      << "strict intersection must lose the corrupted-stage key";
  EXPECT_TRUE(contains_key(infer_heavy_keys(s, wide(s), 400.0, slack1), key))
      << "slack 1 must tolerate one corrupted stage";
}

TEST(ReverseInferenceTest, TruncationCapsAdversarialOutput) {
  ReversibleSketch s(rs48(13));
  // Plant many heavy keys to force a large candidate set.
  for (std::uint32_t i = 0; i < 600; ++i) {
    s.update(pack_ip_port(IPv4{0x0a000000u + i}, 80), 1000.0);
  }
  InferenceOptions opts;
  opts.max_candidates = 100;
  const InferenceResult r = infer_heavy_keys(s, wide(s), 300.0, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.keys.size(), 100u);
}

TEST(ReverseInferenceTest, HeavyBucketsMatchInferenceInputs) {
  ReversibleSketch s(rs48(17));
  const std::uint64_t key = pack_ip_port(IPv4(1, 2, 3, 4), 8080);
  s.update(key, 700.0);
  const auto hb = s.grid().heavy_buckets(300.0);
  ASSERT_EQ(hb.size(), 6u);
  for (std::size_t h = 0; h < hb.size(); ++h) {
    ASSERT_EQ(hb[h].size(), 1u) << "stage " << h;
    EXPECT_EQ(hb[h][0], s.bucket_of(h, key));
  }
}

TEST(ReverseInferenceTest, RecoversKeySplitAcrossCombinedSketches) {
  // The multi-router property at sketch level: a key sub-threshold at every
  // vantage point becomes recoverable from the COMBINEd sketch.
  const auto cfg = rs48(21);
  ReversibleSketch a(cfg), b(cfg), c(cfg);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 7, 7), 443);
  a.update(key, 150.0);
  b.update(key, 180.0);
  c.update(key, 170.0);
  for (ReversibleSketch* part : {&a, &b, &c}) {
    EXPECT_TRUE(infer_heavy_keys(*part, wide(*part), 400.0).keys.empty())
        << "each share is below threshold";
  }
  ReversibleSketch combined = a;
  combined.grid().accumulate(b.grid());
  combined.grid().accumulate(c.grid());
  EXPECT_TRUE(
      contains_key(infer_heavy_keys(combined, wide(combined), 400.0), key));
}

TEST(ReverseInferenceTest, ForecastErrorSketchInferenceFindsOnlyTheChange) {
  // End-to-end sketch-space change detection: steady keys cancel out in the
  // error sketch; only the NEW heavy key is recovered.
  const auto cfg = rs48(23);
  ReversibleSketch yesterday(cfg), today(cfg);
  const std::uint64_t steady = pack_ip_port(IPv4(1, 1, 1, 1), 80);
  const std::uint64_t burst = pack_ip_port(IPv4(2, 2, 2, 2), 1433);
  yesterday.update(steady, 900.0);
  today.update(steady, 905.0);  // stable within noise
  today.update(burst, 500.0);   // the anomaly
  CounterGrid error = wide(today);  // today - yesterday
  error.accumulate(wide(yesterday), -1.0);
  const InferenceResult r = infer_heavy_keys(today, error, 100.0);
  EXPECT_TRUE(contains_key(r, burst));
  for (const HeavyKey& k : r.keys) {
    EXPECT_NE(k.key, steady) << "steady traffic must cancel";
  }
}

// Property sweep: inference recall across heavy-key populations.
class InferenceRecall : public ::testing::TestWithParam<int> {};

TEST_P(InferenceRecall, FindsAllPlantedKeys) {
  const int num_heavy = GetParam();
  ReversibleSketch s(rs48(100 + num_heavy));
  Pcg32 rng(num_heavy);
  for (int i = 0; i < 10000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  std::set<std::uint64_t> heavy;
  while (static_cast<int>(heavy.size()) < num_heavy) {
    heavy.insert(rng.next64() & ((1ULL << 48) - 1));
  }
  for (const std::uint64_t k : heavy) s.update(k, 500.0);
  const InferenceResult r = infer_heavy_keys(s, wide(s), 250.0);
  std::size_t found = 0;
  for (const std::uint64_t k : heavy) found += contains_key(r, k) ? 1 : 0;
  EXPECT_EQ(found, heavy.size());
}

INSTANTIATE_TEST_SUITE_P(Populations, InferenceRecall,
                         ::testing::Values(1, 2, 5, 10, 25));

TEST(ReverseInferenceTest, DenseAnomalySetNeedsInSearchVerification) {
  // At ~50 concurrent anomalies in a 2^12-bucket sketch the slack-1 search
  // admits hundreds of thousands of cross-product candidates; an in-search
  // verifier keeps the output exact AND complete.
  const int num_heavy = 50;
  ReversibleSketch s(rs48(7777));
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 4242});
  Pcg32 rng(num_heavy);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = rng.next64() & ((1ULL << 48) - 1);
    s.update(k, 1.0);
    verif.update(k, 1.0);
  }
  std::set<std::uint64_t> heavy;
  while (static_cast<int>(heavy.size()) < num_heavy) {
    heavy.insert(rng.next64() & ((1ULL << 48) - 1));
  }
  for (const std::uint64_t k : heavy) {
    s.update(k, 500.0);
    verif.update(k, 500.0);
  }
  InferenceOptions opts;
  opts.verifier = [&verif](std::uint64_t key, double) {
    return verif.estimate(key) >= 250.0;
  };
  const InferenceResult r = infer_heavy_keys(s, wide(s), 250.0, opts);
  EXPECT_FALSE(r.truncated);
  std::size_t found = 0;
  for (const std::uint64_t k : heavy) found += contains_key(r, k) ? 1 : 0;
  EXPECT_EQ(found, heavy.size());
  EXPECT_LE(r.keys.size(), heavy.size() + 5)
      << "verifier must remove nearly all cross-product artifacts";
}

TEST(ReverseInferenceTest, PrecollectedBucketsMatchInternalScan) {
  // The detection epoch hands in the heavy-bucket lists its fused forecaster
  // pass collected; the result must equal the classic scan-inside path.
  ReversibleSketch s(rs48(31));
  Pcg32 rng(31);
  for (int i = 0; i < 5000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    s.update(pack_ip_port(IPv4{0x0a0a0000u + i}, 80), 600.0);
  }
  const double t = 250.0;
  const InferenceResult internal = infer_heavy_keys(s, wide(s), t);
  const InferenceResult precollected =
      infer_heavy_keys(s, wide(s), t, InferenceOptions{},
                       s.grid().heavy_buckets(t));
  EXPECT_EQ(internal.keys.size(), precollected.keys.size());
  for (std::size_t i = 0; i < internal.keys.size(); ++i) {
    EXPECT_EQ(internal.keys[i].key, precollected.keys[i].key) << i;
  }
}

TEST(ReverseInferenceTest, TopNTruncationDeterministicUnderTies) {
  // Regression: max_heavy_per_stage keeps the N largest buckets via a
  // partial sort. With EQUAL-valued buckets (the common case — many flood
  // victims at the same packet rate) the old value-only comparator left the
  // kept set dependent on input order; the tie-break on bucket index makes
  // truncation a pure function of the sketch. Feed the same heavy-bucket
  // lists in ascending and descending order: results must match exactly.
  ReversibleSketch s(rs48(37));
  // 20 keys, all with IDENTICAL mass => equal-valued heavy buckets.
  for (std::uint32_t i = 0; i < 20; ++i) {
    s.update(pack_ip_port(IPv4{0xc0a80000u + i * 7}, 443), 500.0);
  }
  const double t = 250.0;
  InferenceOptions opts;
  opts.max_heavy_per_stage = 6;  // forces truncation among equal values
  const auto ascending = s.grid().heavy_buckets(t);
  auto descending = ascending;
  for (auto& stage : descending) std::reverse(stage.begin(), stage.end());

  const InferenceResult ra = infer_heavy_keys(s, wide(s), t, opts, ascending);
  const InferenceResult rd = infer_heavy_keys(s, wide(s), t, opts, descending);
  ASSERT_FALSE(ra.keys.empty());
  ASSERT_EQ(ra.keys.size(), rd.keys.size());
  for (std::size_t i = 0; i < ra.keys.size(); ++i) {
    EXPECT_EQ(ra.keys[i].key, rd.keys[i].key) << i;
  }

  // And repeated runs through the public path are stable.
  const InferenceResult r1 = infer_heavy_keys(s, wide(s), t, opts);
  const InferenceResult r2 = infer_heavy_keys(s, wide(s), t, opts);
  ASSERT_EQ(r1.keys.size(), r2.keys.size());
  for (std::size_t i = 0; i < r1.keys.size(); ++i) {
    EXPECT_EQ(r1.keys[i].key, r2.keys[i].key) << i;
  }
}

/// 32-bit keys: 4 words x 3 bits, the paper's third sketch shape.
ReversibleSketchConfig rs32(std::uint64_t seed = 1) {
  return ReversibleSketchConfig{.key_bits = 32, .num_stages = 6,
                                .bucket_bits = 12, .seed = seed};
}

/// Builds a noisy sketch of any shape with `num_heavy` planted keys — enough
/// search work for work budgets to have something to bite into.
ReversibleSketch dense_sketch_of(const ReversibleSketchConfig& cfg,
                                 int num_heavy) {
  ReversibleSketch s(cfg);
  const std::uint64_t key_mask =
      cfg.key_bits == 64 ? ~0ULL : (1ULL << cfg.key_bits) - 1;
  Pcg32 rng(cfg.seed);
  for (int i = 0; i < 8000; ++i) s.update(rng.next64() & key_mask, 1.0);
  for (int i = 0; i < num_heavy; ++i) {
    s.update(rng.next64() & key_mask, 500.0);
  }
  return s;
}

ReversibleSketch dense_sketch(int num_heavy, std::uint64_t seed) {
  return dense_sketch_of(rs48(seed), num_heavy);
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
  EXPECT_EQ(a.heavy_bucket_total, b.heavy_bucket_total) << what;
  EXPECT_EQ(a.heavy_buckets_dropped, b.heavy_buckets_dropped) << what;
  EXPECT_EQ(a.work_used, b.work_used) << what;
}

TEST(StreamingInferenceTest, WorkBudgetOvershootsByAtMostOneStep) {
  // The work meter decides where a budgeted search stops, so the truncated
  // key set is a pure function of the inputs: a re-run on a fresh engine
  // stops at the same point.
  const ReversibleSketch s = dense_sketch(30, 92);
  const double t = 250.0;
  InferenceOptions opts;
  opts.max_work = 200;  // far less than the full search needs
  const InferenceResult ref = infer_heavy_keys(s, wide(s), t, opts);
  EXPECT_TRUE(ref.work_exhausted);
  // The meter is checked before each step and a step charges its full cost
  // (1 + buckets in a node's consistent slices, 2 at a leaf), so the final
  // tally may overshoot the cap by at most ONE step — bounded by the
  // per-stage heavy bucket count.
  EXPECT_GE(ref.work_used, opts.max_work);
  EXPECT_LT(ref.work_used, 2 * opts.max_work);
  expect_same_result(ref, infer_heavy_keys(s, wide(s), t, opts), "re-run");
}

TEST(StreamingInferenceTest, BudgetedOutputIsPrefixOfUnbudgeted) {
  // Truncation degrades by CUTTING THE SEARCH SHORT, never by reordering:
  // a budgeted run's keys are a prefix of the unbudgeted run's keys.
  const ReversibleSketch s = dense_sketch(30, 93);
  const double t = 250.0;
  const InferenceResult whole = infer_heavy_keys(s, wide(s), t);
  InferenceOptions opts;
  opts.max_work = 300;
  const InferenceResult cut = infer_heavy_keys(s, wide(s), t, opts);
  ASSERT_TRUE(cut.work_exhausted);
  ASSERT_LT(cut.keys.size(), whole.keys.size());
  for (std::size_t i = 0; i < cut.keys.size(); ++i) {
    EXPECT_EQ(cut.keys[i].key, whole.keys[i].key) << i;
  }
  EXPECT_TRUE(cut.degraded());
  EXPECT_FALSE(whole.degraded());
}

TEST(StreamingInferenceTest, EngineIsReusableAcrossSearches) {
  // The detector keeps three long-lived engines; a second begin() must
  // fully reset state left by the first search (including a truncated one).
  const ReversibleSketch s = dense_sketch(20, 94);
  const double t = 250.0;
  const CounterGrid counters = wide(s);
  StreamingInference engine;
  InferenceOptions tight;
  tight.max_work = 100;
  engine.begin(s, counters, t, tight);
  engine.run();
  (void)engine.take_result();  // truncated run, discarded

  engine.begin(s, counters, t, InferenceOptions{});
  engine.run();
  expect_same_result(infer_heavy_keys(s, wide(s), t), engine.take_result(),
                     "reuse");
}

/// Order-sensitive digest of the emitted (key, estimate bits) sequence.
std::uint64_t keys_digest(const InferenceResult& r) {
  std::uint64_t h = 0;
  for (const HeavyKey& k : r.keys) {
    h = mix64(h ^ k.key);
    h = mix64(h ^ std::bit_cast<std::uint64_t>(k.estimate));
  }
  return h;
}

TEST(StreamingInferenceTest, GoldenResultsPinTheSearch) {
  // Values recorded from the search engine before its slice-based rewrite:
  // traversal order, emitted keys and estimates, truncation points and the
  // work meter are part of the contract (budgeted epochs cut the search at
  // a work count), so any engine change must reproduce every figure.
  struct Case {
    const char* name;
    ReversibleSketchConfig cfg;
    std::size_t stage_slack;
    std::size_t max_heavy_per_stage;
    std::size_t max_work;
    std::size_t work_used;
    bool truncated;
    bool work_exhausted;
    std::size_t num_keys;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"rs48 slack0", rs48(95), 0, 0, 0,
       220003, false, false, 43, 0x26cd314f1d0c23c4ULL},
      {"rs48 slack1", rs48(95), 1, 0, 0,
       1827438, false, false, 6490, 0xe69e8ad57d0f0abcULL},
      {"rs48 slack2", rs48(95), 2, 0, 0,
       1261278, true, false, 100000, 0x34c5e2b5f9d34fe1ULL},
      {"rs48 top8", rs48(95), 1, 8, 0,
       42876, false, false, 44, 0xe8b7268aae703523ULL},
      {"rs48 work5000", rs48(95), 1, 0, 5000,
       5002, false, true, 18, 0xa895c9d445ff11c9ULL},
      {"rs64 slack0", rs64(96), 0, 0, 0,
       159496, false, false, 29, 0xfa4c7388d8048fa5ULL},
      {"rs64 slack1", rs64(96), 1, 0, 0,
       1629688, false, false, 745, 0x77c149f669861bcbULL},
      {"rs64 slack2", rs64(96), 2, 0, 0,
       2137936, true, false, 100000, 0x964504b6bb5bd7c1ULL},
      {"rs64 top8", rs64(96), 1, 8, 0,
       27171, false, false, 6, 0x995c9954a6990eacULL},
      {"rs64 work200000", rs64(96), 1, 0, 200000,
       200000, false, true, 92, 0x6e45b30fa9da1d63ULL},
      {"rs32 slack0", rs32(97), 0, 0, 0,
       3506, false, false, 20, 0xa6dd41cb23da1b95ULL},
      {"rs32 slack1", rs32(97), 1, 0, 0,
       9004, false, false, 24, 0xcc5c65c934ffc3f5ULL},
      {"rs32 slack2", rs32(97), 2, 0, 0,
       30793, false, false, 159, 0x668a7e8277653225ULL},
      {"rs32 top8", rs32(97), 1, 8, 0,
       757, false, false, 2, 0x80c7563e619623d6ULL},
      {"rs32 work5000", rs32(97), 1, 0, 5000,
       5004, false, true, 10, 0xef0421867dd05452ULL},
  };
  for (const Case& c : cases) {
    const ReversibleSketch s = dense_sketch_of(c.cfg, 20);
    InferenceOptions opts;
    opts.stage_slack = c.stage_slack;
    opts.max_heavy_per_stage = c.max_heavy_per_stage;
    opts.max_work = c.max_work;
    const InferenceResult r = infer_heavy_keys(s, wide(s), 250.0, opts);
    EXPECT_EQ(r.work_used, c.work_used) << c.name;
    EXPECT_EQ(r.truncated, c.truncated) << c.name;
    EXPECT_EQ(r.work_exhausted, c.work_exhausted) << c.name;
    EXPECT_EQ(r.keys.size(), c.num_keys) << c.name;
    EXPECT_EQ(keys_digest(r), c.digest) << c.name;
  }
}

TEST(StreamingInferenceTest, RootListOrderNeverChangesTheResult) {
  // The search reads each stage's heavy buckets as sorted slices, so begin()
  // must order whatever lists it is handed. Without a top-N cap nothing else
  // re-sorts them: ascending, descending and shuffled lists must give the
  // same keys, order and work accounting.
  const double t = 250.0;
  for (const ReversibleSketchConfig& cfg : {rs48(95), rs64(96), rs32(97)}) {
    const ReversibleSketch s = dense_sketch_of(cfg, 20);
    const auto ascending = s.grid().heavy_buckets(t);
    auto descending = ascending;
    for (auto& stage : descending) std::reverse(stage.begin(), stage.end());
    auto shuffled = ascending;
    Pcg32 rng(cfg.seed);
    for (auto& stage : shuffled) std::shuffle(stage.begin(), stage.end(), rng);

    const InferenceResult ref =
        infer_heavy_keys(s, wide(s), t, InferenceOptions{}, ascending);
    ASSERT_FALSE(ref.keys.empty()) << cfg.key_bits;
    expect_same_result(ref,
                       infer_heavy_keys(s, wide(s), t, InferenceOptions{},
                                        descending),
                       "descending");
    expect_same_result(ref,
                       infer_heavy_keys(s, wide(s), t, InferenceOptions{},
                                        shuffled),
                       "shuffled");
  }
}

/// Sketches dense enough that (nearly) every first byte stays viable: 8000
/// unit keys of noise and 24 planted heavy keys, in each key shape.
std::vector<ReversibleSketch> split_sketches() {
  std::vector<ReversibleSketch> out;
  out.push_back(dense_sketch_of(rs48(101), 24));
  out.push_back(dense_sketch_of(rs64(102), 24));
  out.push_back(dense_sketch_of(rs32(103), 24));
  return out;
}

/// Runs one search per sketch as split searches sharing a pool of
/// `threads`, and returns their joined results.
std::vector<InferenceResult> run_split(
    const std::vector<ReversibleSketch>& sketches, double t,
    const InferenceOptions& opts, std::size_t threads,
    std::vector<StreamingInference::Walker>& walkers) {
  std::vector<StreamingInference> engines(sketches.size());
  std::vector<CounterGrid> counters;
  for (const auto& s : sketches) counters.push_back(wide(s));
  std::vector<StreamingInference*> searches;
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    engines[i].begin(sketches[i], counters[i], t, opts);
    EXPECT_TRUE(engines[i].split());
    EXPECT_GE(engines[i].subtrees(), 32u) << "too few subtrees to split";
    searches.push_back(&engines[i]);
  }
  TaskPool pool(threads);
  run_split_searches(searches, pool, walkers);
  std::vector<InferenceResult> out;
  for (auto& e : engines) out.push_back(e.take_result());
  return out;
}

TEST(StreamingInferenceTest, SubtreeSplitMatchesSequential) {
  // Splitting an unbudgeted search into first-byte subtrees is scheduling
  // only: at every pool size, each joined result equals the sequential
  // search — keys and their order, estimate bits, and the work meter.
  const double t = 250.0;
  const std::vector<ReversibleSketch> sketches = split_sketches();
  std::vector<StreamingInference::Walker> walkers;  // reused throughout
  for (const std::size_t slack : {std::size_t{0}, std::size_t{1}}) {
    InferenceOptions opts;
    opts.stage_slack = slack;
    std::vector<InferenceResult> want;
    for (const auto& s : sketches) {
      want.push_back(infer_heavy_keys(s, wide(s), t, opts));
    }
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const auto got = run_split(sketches, t, opts, threads, walkers);
      for (std::size_t i = 0; i < sketches.size(); ++i) {
        ASSERT_FALSE(want[i].keys.empty());
        EXPECT_FALSE(want[i].truncated);
        expect_same_result(want[i], got[i], "split");
      }
    }
  }
  // A budgeted search's stop point depends on the order: it never splits.
  InferenceOptions budgeted;
  budgeted.max_work = 5000;
  const CounterGrid counters = wide(sketches[0]);
  StreamingInference engine;
  engine.begin(sketches[0], counters, t, budgeted);
  EXPECT_FALSE(engine.split());
  engine.run();
  expect_same_result(
      infer_heavy_keys(sketches[0], wide(sketches[0]), t, budgeted),
      engine.take_result(), "budgeted");
}

TEST(StreamingInferenceTest, SubtreeSplitHonoursCandidateCap) {
  // With a small max_candidates the sequential search stops at the first
  // key past the cap. The split search runs subtrees past that point, so
  // the join must cut the keys and the work meter exactly there.
  const double t = 250.0;
  const std::vector<ReversibleSketch> sketches = split_sketches();
  std::vector<StreamingInference::Walker> walkers;
  for (const std::size_t slack : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{20}}) {
      InferenceOptions opts;
      opts.stage_slack = slack;
      opts.max_candidates = cap;
      std::vector<InferenceResult> want;
      for (const auto& s : sketches) {
        want.push_back(infer_heavy_keys(s, wide(s), t, opts));
        EXPECT_TRUE(want.back().truncated) << "cap " << cap;
      }
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        const auto got = run_split(sketches, t, opts, threads, walkers);
        for (std::size_t i = 0; i < sketches.size(); ++i) {
          expect_same_result(want[i], got[i], "capped split");
        }
      }
    }
  }
}

TEST(StreamingInferenceTest, BeginRejectsGridOfAnotherShape) {
  // The search indexes the grid through the sketch's hashing at every node
  // and leaf, so begin() checks the shape once and nothing later does.
  const ReversibleSketch s = dense_sketch(4, 95);
  const ReversibleSketch other(rs64(95));
  StreamingInference engine;
  EXPECT_THROW(engine.begin(s, wide(other), 250.0, InferenceOptions{}),
               std::invalid_argument);
  EXPECT_THROW(infer_heavy_keys(s, wide(other), 250.0), std::invalid_argument);
  EXPECT_THROW(infer_heavy_keys(s, CounterGrid(6, 1u << 12, 1), 250.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace hifind
