// LoadShedder contract tests: deterministic admit decisions, nested
// power-of-two sampling, budget-driven escalation, seal-time restore
// hysteresis, flow-coherent (SYN vs SYN-ACK) decisions, and max_level
// validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "../testing/synthetic.hpp"
#include "common/rng.hpp"
#include "detect/load_shedder.hpp"
#include "packet/packet.hpp"

namespace hifind {
namespace {

RecordOp op_for(const PacketRecord& p) {
  RecordOp op{};
  EXPECT_TRUE(make_record_op(p, 1.0, op));
  return op;
}

std::vector<RecordOp> random_syn_ops(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 99);
  std::vector<RecordOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.push_back(op_for(testing::syn_packet(
        0, IPv4{rng.next()}, IPv4{rng.next()},
        static_cast<std::uint16_t>(rng.bounded(60000) + 1))));
  }
  return ops;
}

TEST(LoadShedder, DisabledConfigAdmitsEverythingAtUnitWeight) {
  LoadShedder shed(LoadShedderConfig{});
  EXPECT_FALSE(shed.enabled());
  for (const RecordOp& op : random_syn_ops(200, 1)) {
    EXPECT_EQ(shed.admit(op), 1.0);
  }
  const ShedReport r = shed.seal_interval();
  // A disabled shedder does not even count: zero overhead, clean report.
  EXPECT_EQ(r.ops_offered, 0u);
  EXPECT_EQ(r.ops_shed, 0u);
  EXPECT_EQ(r.sample_coverage, 1.0);
  EXPECT_FALSE(r.shed());
}

TEST(LoadShedder, BudgetEscalatesAtPowerOfTwoThresholds) {
  LoadShedderConfig cfg;
  cfg.budget_ops_per_interval = 100;
  LoadShedder shed(cfg);
  const auto ops = random_syn_ops(500, 2);
  std::vector<std::uint32_t> level_at;  // level seen by the n-th op
  for (const RecordOp& op : ops) {
    shed.admit(op);
    level_at.push_back(shed.level());
  }
  // Escalation points are a pure function of the offered count: level 1
  // past 100 offered, 2 past 200, 3 past 400.
  EXPECT_EQ(level_at[99], 0u);
  EXPECT_EQ(level_at[100], 1u);
  EXPECT_EQ(level_at[199], 1u);
  EXPECT_EQ(level_at[200], 2u);
  EXPECT_EQ(level_at[399], 2u);
  EXPECT_EQ(level_at[400], 3u);
  EXPECT_EQ(level_at[499], 3u);

  const ShedReport r = shed.seal_interval();
  EXPECT_EQ(r.ops_offered, 500u);
  EXPECT_EQ(r.level_max, 3u);
  EXPECT_EQ(r.level_end, 2u);  // default restore = 1 level per interval
  EXPECT_TRUE(r.shed());
  EXPECT_EQ(r.ops_admitted + r.ops_shed, r.ops_offered);
  EXPECT_DOUBLE_EQ(r.sample_coverage, static_cast<double>(r.ops_admitted) /
                                          static_cast<double>(r.ops_offered));
}

TEST(LoadShedder, AdmitWeightIsExactPowerOfTwo) {
  for (std::uint32_t level = 1; level <= 6; ++level) {
    LoadShedderConfig cfg;
    cfg.initial_level = level;
    LoadShedder shed(cfg);
    for (const RecordOp& op : random_syn_ops(512, 3)) {
      const double w = shed.admit(op);
      if (w != 0.0) {
        EXPECT_EQ(w, std::ldexp(1.0, static_cast<int>(level)));
      }
    }
  }
}

TEST(LoadShedder, SamplesAreNestedAcrossLevels) {
  // The level-(k+1) sample must be a subset of the level-k sample: rate
  // changes refine the same cohort instead of switching populations, so a
  // flow's fate under escalation is monotone.
  const auto ops = random_syn_ops(2048, 4);
  std::vector<std::set<std::uint64_t>> admitted(5);
  for (std::uint32_t level = 0; level <= 4; ++level) {
    LoadShedderConfig cfg;
    cfg.initial_level = level;
    LoadShedder shed(cfg);
    for (const RecordOp& op : ops) {
      if (shed.admit(op) != 0.0) admitted[level].insert(op.k_sip_dip);
    }
  }
  EXPECT_EQ(admitted[0].size(), 2048u);
  for (std::uint32_t level = 1; level <= 4; ++level) {
    for (std::uint64_t key : admitted[level]) {
      EXPECT_TRUE(admitted[level - 1].count(key))
          << "level " << level << " admitted a key level " << level - 1
          << " shed";
    }
    // mix64 is a good mixer: the sample size should sit near n / 2^level.
    const double expect = 2048.0 * std::ldexp(1.0, -static_cast<int>(level));
    EXPECT_NEAR(static_cast<double>(admitted[level].size()), expect,
                expect * 0.5 + 32.0);
    EXPECT_GT(admitted[level].size(), 0u);
  }
}

TEST(LoadShedder, DecisionsAreDeterministic) {
  const auto ops = random_syn_ops(1000, 5);
  LoadShedderConfig cfg;
  cfg.budget_ops_per_interval = 128;
  LoadShedder a(cfg), b(cfg);
  for (const RecordOp& op : ops) {
    EXPECT_EQ(a.admit(op), b.admit(op));
  }
  const ShedReport ra = a.seal_interval();
  const ShedReport rb = b.seal_interval();
  EXPECT_EQ(ra.ops_admitted, rb.ops_admitted);
  EXPECT_EQ(ra.ops_shed, rb.ops_shed);
  EXPECT_EQ(ra.level_max, rb.level_max);
}

TEST(LoadShedder, SynAndSynAckOfSameFlowShareTheVerdict) {
  // extract_key reflects direction, so the SYN and its answering SYN-ACK
  // carry the same k_sip_dip — the shedder must treat them as one flow or
  // the #SYN - #SYN/ACK signal would be biased under sampling.
  LoadShedderConfig cfg;
  cfg.initial_level = 2;
  LoadShedder shed(cfg);
  Pcg32 rng(6, 7);
  int sampled_flows = 0;
  for (int i = 0; i < 512; ++i) {
    const IPv4 client{rng.next()};
    const IPv4 server{rng.next()};
    const auto sport = static_cast<std::uint16_t>(30000 + i);
    const RecordOp s = op_for(testing::syn_packet(0, client, server, 443,
                                                  sport));
    const RecordOp sa = op_for(testing::synack_packet(0, server, 443, client,
                                                      sport));
    ASSERT_EQ(s.k_sip_dip, sa.k_sip_dip);
    const bool syn_admitted = shed.admit(s) != 0.0;
    const bool synack_admitted = shed.admit(sa) != 0.0;
    EXPECT_EQ(syn_admitted, synack_admitted);
    sampled_flows += syn_admitted ? 1 : 0;
  }
  EXPECT_GT(sampled_flows, 0);
  EXPECT_LT(sampled_flows, 512);
}

TEST(LoadShedder, RestoreHysteresisDecaysPerSeal) {
  LoadShedderConfig cfg;
  cfg.initial_level = 4;
  cfg.restore_levels_per_interval = 2;
  LoadShedder shed(cfg);
  EXPECT_EQ(shed.level(), 4u);
  EXPECT_EQ(shed.seal_interval().level_end, 2u);
  EXPECT_EQ(shed.level(), 2u);
  EXPECT_EQ(shed.seal_interval().level_end, 0u);
  EXPECT_EQ(shed.seal_interval().level_end, 0u);  // clamps at 0
}

TEST(LoadShedder, RejectsMaxLevelBeyondShiftWidth) {
  // admit() shifts 64-bit words by the level, so level 64 would be UB.
  LoadShedderConfig cfg;
  cfg.max_level = 64;
  EXPECT_THROW(LoadShedder{cfg}, std::invalid_argument);
  cfg.max_level = 63;
  EXPECT_NO_THROW(LoadShedder{cfg});
}

TEST(LoadShedder, MaxLevelBoundsCoverageFloor) {
  LoadShedderConfig cfg;
  cfg.budget_ops_per_interval = 10;
  cfg.max_level = 3;
  LoadShedder shed(cfg);
  std::uint64_t admitted = 0;
  const auto ops = random_syn_ops(4096, 8);
  for (const RecordOp& op : ops) {
    if (shed.admit(op) != 0.0) ++admitted;
  }
  EXPECT_EQ(shed.level(), 3u);  // would be 8+ without the cap
  const ShedReport r = shed.seal_interval();
  // Even under unbounded pressure the sampled fraction cannot fall below
  // the configured floor (up to hash noise on the tail).
  EXPECT_GE(r.sample_coverage, cfg.min_coverage() * 0.5);
  EXPECT_EQ(r.ops_admitted, admitted);
}

}  // namespace
}  // namespace hifind
