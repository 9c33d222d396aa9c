#include "sketch/reversible_sketch.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
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

TEST(ReversibleSketchConfigTest, WordArithmetic) {
  EXPECT_EQ(rs48().num_words(), 6);
  EXPECT_EQ(rs48().bits_per_word(), 2);
  EXPECT_EQ(rs48().num_buckets(), 4096u);
  EXPECT_EQ(rs64().num_words(), 8);
  EXPECT_EQ(rs64().bits_per_word(), 2);
  EXPECT_EQ(rs64().num_buckets(), 65536u);
}

TEST(ReversibleSketchTest, RejectsInvalidShapes) {
  // key_bits not a byte multiple
  EXPECT_THROW(ReversibleSketch(ReversibleSketchConfig{
                   .key_bits = 44, .num_stages = 6, .bucket_bits = 12}),
               std::invalid_argument);
  // bucket_bits not divisible by word count (12 words? no — 13 bits / 6)
  EXPECT_THROW(ReversibleSketch(ReversibleSketchConfig{
                   .key_bits = 48, .num_stages = 6, .bucket_bits = 13}),
               std::invalid_argument);
  EXPECT_THROW(ReversibleSketch(ReversibleSketchConfig{
                   .key_bits = 48, .num_stages = 0, .bucket_bits = 12}),
               std::invalid_argument);
}

TEST(ReversibleSketchTest, EstimateRecoversHeavyKey) {
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 2), 1433);
  s.update(key, 777.0);
  EXPECT_NEAR(s.estimate(key), 777.0, 1e-9);
}

TEST(ReversibleSketchTest, EstimateUnderNoise48And64) {
  for (const auto& cfg : {rs48(3), rs64(3)}) {
    ReversibleSketch s(cfg);
    Pcg32 rng(17);
    const std::uint64_t mask = cfg.key_bits == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << cfg.key_bits) - 1;
    for (int i = 0; i < 20000; ++i) s.update(rng.next64() & mask, 1.0);
    const std::uint64_t heavy = 0x123456789abcULL & mask;
    s.update(heavy, 3000.0);
    EXPECT_NEAR(s.estimate(heavy), 3000.0, 450.0) << cfg.key_bits;
  }
}

TEST(ReversibleSketchTest, BucketIndexConsistentAcrossCalls) {
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(1, 2, 3, 4), 80);
  for (std::size_t h = 0; h < 6; ++h) {
    const std::size_t b1 = s.bucket_of(h, key);
    const std::size_t b2 = s.bucket_of(h, key);
    EXPECT_EQ(b1, b2);
    EXPECT_LT(b1, s.config().num_buckets());
  }
}

TEST(ReversibleSketchTest, StagesUseIndependentHashes) {
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(10, 0, 0, 1), 22);
  std::set<std::size_t> distinct;
  for (std::size_t h = 0; h < 6; ++h) distinct.insert(s.bucket_of(h, key));
  EXPECT_GT(distinct.size(), 2u)
      << "stages landing in identical buckets suggests shared hash state";
}

TEST(ReversibleSketchTest, BucketLoadRoughlyUniformOnClusteredKeys) {
  // Sequential {IP,port} keys (shared prefix) — mangling must spread them.
  ReversibleSketch s(rs48(9));
  const std::size_t k = s.config().num_buckets();
  std::vector<int> load(k, 0);
  for (std::uint32_t i = 0; i < 40960; ++i) {
    const std::uint64_t key = pack_ip_port(IPv4(129u << 24 | i), 80);
    ++load[s.bucket_of(0, key)];
  }
  int maxload = 0;
  for (int l : load) maxload = std::max(maxload, l);
  // mean load is 10; a badly skewed distribution would put hundreds in one.
  EXPECT_LT(maxload, 60);
}

TEST(ReversibleSketchTest, CombineEqualsSingleRecorder) {
  ReversibleSketch a(rs48(5)), b(rs48(5)), whole(rs48(5));
  Pcg32 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = rng.next64() & ((1ULL << 48) - 1);
    const double v = rng.chance(0.6) ? 1.0 : -1.0;
    (rng.chance(0.5) ? a : b).update(key, v);
    whole.update(key, v);
  }
  ReversibleSketch combined = a;
  combined.grid().accumulate(b.grid());
  // Counter arrays must be identical, not merely similar.
  const auto cw = whole.grid().counters();
  const auto cc = combined.grid().counters();
  ASSERT_EQ(cw.size(), cc.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    ASSERT_DOUBLE_EQ(cw[i], cc[i]) << "counter " << i;
  }
}

TEST(ReversibleSketchTest, CombineIntoMatchesCombineOnDirtyDestination) {
  ReversibleSketch a(rs48(5)), b(rs48(5));
  Pcg32 rng(29);
  for (int i = 0; i < 3000; ++i) {
    (rng.chance(0.5) ? a : b)
        .update(rng.next64() & ((1ULL << 48) - 1), rng.chance(0.6) ? 1.0 : -1.0);
  }
  ReversibleSketch reference = a;
  reference.grid().accumulate(b.grid());
  // The bank sum's per-grid step: copy term 0 over a dirty destination,
  // accumulate the rest.
  ReversibleSketch dest(rs48(5));
  dest.update(42, 7.0);  // stale state the copy must fully overwrite
  dest.grid() = a.grid();
  dest.grid().accumulate(b.grid());
  const auto rc = reference.grid().counters();
  const auto dc = dest.grid().counters();
  ASSERT_EQ(rc.size(), dc.size());
  for (std::size_t i = 0; i < rc.size(); ++i) {
    ASSERT_EQ(rc[i], dc[i]) << "counter " << i;
  }
}

TEST(ReversibleSketchTest, ScaleAndClear) {
  // Reads through estimate()'s scale (the collector's 1/coverage rescale),
  // then clear().
  ReversibleSketch s(rs48());
  s.update(100, 10.0);
  EXPECT_NEAR(s.estimate(100, 0.25), 2.5, 1e-9);
  s.grid().clear();
  EXPECT_NEAR(s.estimate(100), 0.0, 1e-12);
}

TEST(ReversibleSketchTest, AccessAccountingMatchesPaperShape) {
  ReversibleSketch s48(rs48()), s64(rs64());
  EXPECT_EQ(s48.accesses_per_update(), 6u);
  EXPECT_EQ(s64.accesses_per_update(), 6u);
  // The paper's 15/16-access figure counts word-hash SRAM reads; ours is
  // H * q lookups plus H counter writes.
  EXPECT_EQ(s48.word_hash_reads_per_update(), 36u);
  EXPECT_EQ(s64.word_hash_reads_per_update(), 48u);
}

TEST(ReversibleSketchTest, ManglerRoundTripsThroughSketchConfig) {
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(4, 3, 2, 1), 4899);
  EXPECT_EQ(s.mangler().unmangle(s.mangler().mangle(key)), key);
}

}  // namespace
}  // namespace hifind
