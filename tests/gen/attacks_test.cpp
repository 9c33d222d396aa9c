#include "gen/attacks.hpp"

#include <gtest/gtest.h>

#include <set>

namespace hifind {
namespace {

struct Fixture {
  NetworkModel net{NetworkModelConfig{}};
  Pcg32 rng{std::uint64_t{5}};
  Trace trace;
  GroundTruthLedger ledger;
};

TEST(SynFloodInjectorTest, SpoofedFloodHasUniformSources) {
  Fixture f;
  SynFloodSpec spec;
  spec.victim_ip = IPv4(129, 105, 1, 1);
  spec.victim_port = 80;
  spec.rate_pps = 400;
  spec.duration = 10 * kMicrosPerSecond;
  spec.spoofed = true;
  inject_syn_flood(spec, f.net, f.rng, f.trace, f.ledger);

  std::set<std::uint32_t> sources;
  std::size_t syns = 0;
  for (const auto& p : f.trace.packets()) {
    if (p.is_syn()) {
      EXPECT_EQ(p.dip, spec.victim_ip);
      EXPECT_EQ(p.dport, 80);
      sources.insert(p.sip.addr);
      ++syns;
    }
  }
  EXPECT_NEAR(static_cast<double>(syns), 4000.0, 400.0);
  EXPECT_GT(sources.size(), syns * 95 / 100) << "fresh source per packet";
  ASSERT_EQ(f.ledger.events().size(), 1u);
  EXPECT_EQ(f.ledger.events()[0].kind, EventKind::kSynFloodSpoofed);
}

TEST(SynFloodInjectorTest, NonSpoofedUsesFixedAttacker) {
  Fixture f;
  SynFloodSpec spec;
  spec.victim_ip = IPv4(129, 105, 1, 1);
  spec.spoofed = false;
  spec.attacker = IPv4(66, 66, 66, 66);
  spec.duration = 5 * kMicrosPerSecond;
  inject_syn_flood(spec, f.net, f.rng, f.trace, f.ledger);
  for (const auto& p : f.trace.packets()) {
    if (p.is_syn()) {
      EXPECT_EQ(p.sip, spec.attacker);
    }
  }
  EXPECT_EQ(f.ledger.events()[0].kind, EventKind::kSynFloodFixed);
  EXPECT_EQ(f.ledger.events()[0].sip->addr, spec.attacker.addr);
}

TEST(SynFloodInjectorTest, VictimAnswersConfiguredFraction) {
  Fixture f;
  SynFloodSpec spec;
  spec.victim_ip = IPv4(129, 105, 1, 1);
  spec.rate_pps = 1000;
  spec.duration = 20 * kMicrosPerSecond;
  spec.victim_answer_fraction = 0.1;
  inject_syn_flood(spec, f.net, f.rng, f.trace, f.ledger);
  const TraceStats s = f.trace.stats();
  EXPECT_NEAR(static_cast<double>(s.synack_packets),
              0.1 * static_cast<double>(s.syn_packets),
              0.04 * static_cast<double>(s.syn_packets));
}

TEST(HscanInjectorTest, SweepsDistinctInternalTargets) {
  Fixture f;
  HscanSpec spec;
  spec.attacker = IPv4(6, 6, 6, 6);
  spec.dport = 1433;
  spec.num_targets = 500;
  spec.duration = 10 * kMicrosPerSecond;
  spec.open_fraction = 0.0;
  inject_horizontal_scan(spec, f.net, f.rng, f.trace, f.ledger);

  std::set<std::uint32_t> targets;
  for (const auto& p : f.trace.packets()) {
    ASSERT_TRUE(p.is_syn());
    EXPECT_EQ(p.sip, spec.attacker);
    EXPECT_EQ(p.dport, 1433);
    EXPECT_TRUE(f.net.is_internal(p.dip));
    targets.insert(p.dip.addr);
  }
  EXPECT_EQ(f.trace.size(), 500u) << "single SYN per probe, no retransmits";
  EXPECT_GT(targets.size(), 490u);
  // Probes stay within the declared window (with jitter slack).
  EXPECT_LE(f.trace.stats().last_ts, spec.start + 2 * spec.duration);
}

TEST(HscanInjectorTest, OpenPortsAnswer) {
  Fixture f;
  HscanSpec spec;
  spec.attacker = IPv4(6, 6, 6, 6);
  spec.num_targets = 1000;
  spec.open_fraction = 0.2;
  spec.duration = 10 * kMicrosPerSecond;
  inject_horizontal_scan(spec, f.net, f.rng, f.trace, f.ledger);
  const TraceStats s = f.trace.stats();
  EXPECT_NEAR(static_cast<double>(s.synack_packets), 200.0, 60.0);
}

TEST(VscanInjectorTest, SweepsPortsOnOneTarget) {
  Fixture f;
  VscanSpec spec;
  spec.attacker = IPv4(7, 7, 7, 7);
  spec.target = IPv4(129, 105, 50, 50);
  spec.first_port = 100;
  spec.num_ports = 400;
  spec.duration = 10 * kMicrosPerSecond;
  spec.open_fraction = 0.0;
  inject_vertical_scan(spec, f.net, f.rng, f.trace, f.ledger);

  std::set<std::uint16_t> ports;
  for (const auto& p : f.trace.packets()) {
    EXPECT_EQ(p.dip, spec.target);
    ports.insert(p.dport);
  }
  EXPECT_EQ(ports.size(), 400u);
  EXPECT_EQ(*ports.begin(), 100);
}

TEST(BlockScanInjectorTest, CoversTargetPortGrid) {
  Fixture f;
  BlockScanSpec spec;
  spec.attacker = IPv4(8, 8, 8, 8);
  spec.num_targets = 10;
  spec.num_ports = 8;
  spec.duration = 10 * kMicrosPerSecond;
  spec.open_fraction = 0.0;
  inject_block_scan(spec, f.net, f.rng, f.trace, f.ledger);
  std::set<std::pair<std::uint32_t, std::uint16_t>> probes;
  for (const auto& p : f.trace.packets()) {
    probes.insert({p.dip.addr, p.dport});
  }
  EXPECT_EQ(probes.size(), 80u);
  EXPECT_EQ(f.ledger.events()[0].kind, EventKind::kBlockScan);
}

TEST(FlashCrowdInjectorTest, RealClientsAndHighSuccess) {
  Fixture f;
  FlashCrowdSpec spec;
  spec.service_ip = IPv4(129, 105, 1, 1);
  spec.service_port = 80;
  spec.rate_pps = 500;
  spec.duration = 10 * kMicrosPerSecond;
  spec.success_fraction = 0.7;
  inject_flash_crowd(spec, f.net, f.rng, f.trace, f.ledger);
  const TraceStats s = f.trace.stats();
  EXPECT_NEAR(static_cast<double>(s.synack_packets),
              0.7 * static_cast<double>(s.syn_packets),
              0.08 * static_cast<double>(s.syn_packets));
  // Sources are real external clients, not uniform spoof.
  std::set<std::uint32_t> blocks;
  for (const auto& p : f.trace.packets()) {
    if (p.is_syn()) blocks.insert(p.sip.addr >> 16);
  }
  EXPECT_LE(blocks.size(), 400u);
}

TEST(MisconfigInjectorTest, DeadServiceNeverAnswers) {
  Fixture f;
  MisconfigSpec spec;
  spec.dead_ip = f.net.dead_service().ip;
  spec.dead_port = f.net.dead_service().port;
  spec.rate_pps = 100;
  spec.duration = 20 * kMicrosPerSecond;
  inject_misconfiguration(spec, f.net, f.rng, f.trace, f.ledger);
  for (const auto& p : f.trace.packets()) {
    EXPECT_TRUE(p.is_syn()) << "misconfig traffic is pure unanswered SYNs";
    EXPECT_EQ(p.dip, spec.dead_ip);
  }
  // Fixed client cohort: few distinct sources, many repeats.
  std::set<std::uint32_t> sources;
  for (const auto& p : f.trace.packets()) sources.insert(p.sip.addr);
  EXPECT_LE(sources.size(), spec.num_clients);
}

}  // namespace
}  // namespace hifind
