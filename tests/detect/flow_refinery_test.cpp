// ActiveFlowTable + refine_alerts contract tests: exact evidence
// accumulation, bounded capacity with deterministic staleness eviction,
// the seal-then-install ordering (no partial-interval kills), and
// refinement verdicts as a pure function of (alerts, evidence, config).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "../testing/synthetic.hpp"
#include "detect/flow_refinery.hpp"
#include "packet/packet.hpp"

namespace hifind {
namespace {

RecordOp op_for(const PacketRecord& p) {
  RecordOp op{};
  EXPECT_TRUE(make_record_op(p, 1.0, op));
  return op;
}

FlowRefineryConfig small_cfg(std::size_t capacity = 16) {
  FlowRefineryConfig c;
  c.capacity = capacity;
  c.max_idle_intervals = 4;
  return c;
}

const FlowEvidenceEntry* find_entry(const FlowEvidence& ev, KeyKind kind,
                                    std::uint64_t key) {
  for (const FlowEvidenceEntry& e : ev.entries) {
    if (e.kind == kind && e.key == key) return &e;
  }
  return nullptr;
}

TEST(ActiveFlowTable, TracksExactWeightedCountsPerKeySpace) {
  ActiveFlowTable table(small_cfg());
  const IPv4 client(10, 0, 0, 1), server(10, 0, 0, 2);
  const std::uint64_t dip_key = pack_ip_port(server, 80);
  table.install({{KeyKind::DipDport, dip_key}}, /*interval=*/0);
  ASSERT_EQ(table.size(), 1u);

  // 5 SYNs and 2 SYN-ACKs touching the tracked {DIP,Dport}; one unrelated
  // flow that must not count.
  for (int i = 0; i < 5; ++i) {
    table.observe(op_for(testing::syn_packet(
        0, client, server, 80, static_cast<std::uint16_t>(30000 + i))));
  }
  for (int i = 0; i < 2; ++i) {
    table.observe(op_for(testing::synack_packet(
        0, server, 80, client, static_cast<std::uint16_t>(30000 + i))));
  }
  table.observe(op_for(testing::syn_packet(0, client, IPv4(9, 9, 9, 9), 22)));

  const FlowEvidence ev = table.seal(/*interval=*/1);
  const FlowEvidenceEntry* e = find_entry(ev, KeyKind::DipDport, dip_key);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->syn, 5.0);
  // The SYN-ACK is server->client; direction reflection folds it onto the
  // same {DIP,Dport} key as the SYNs it answers.
  EXPECT_DOUBLE_EQ(e->synack, 2.0);
  EXPECT_DOUBLE_EQ(e->unresponded(), 3.0);
  EXPECT_TRUE(e->full_interval);  // installed at 0, sealed at 1

  // Counters reset at seal: a second seal with no traffic reads zero.
  const FlowEvidence ev2 = table.seal(/*interval=*/2);
  const FlowEvidenceEntry* e2 = find_entry(ev2, KeyKind::DipDport, dip_key);
  ASSERT_NE(e2, nullptr);
  EXPECT_DOUBLE_EQ(e2->syn, 0.0);
  EXPECT_DOUBLE_EQ(e2->synack, 0.0);
}

TEST(ActiveFlowTable, FreshInstallSealsAsPartialInterval) {
  ActiveFlowTable table(small_cfg());
  const std::uint64_t key = pack_ip_port(IPv4(1, 2, 3, 4), 80);
  table.install({{KeyKind::DipDport, key}}, /*interval=*/5);
  // Sealing the SAME interval the key was installed at: evidence exists but
  // is flagged partial, so refinement must not kill on it.
  const FlowEvidence ev = table.seal(/*interval=*/5);
  const FlowEvidenceEntry* e = find_entry(ev, KeyKind::DipDport, key);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->full_interval);
  // One interval later the same entry covers a full interval.
  const FlowEvidence ev2 = table.seal(/*interval=*/6);
  const FlowEvidenceEntry* e2 = find_entry(ev2, KeyKind::DipDport, key);
  ASSERT_NE(e2, nullptr);
  EXPECT_TRUE(e2->full_interval);
}

TEST(ActiveFlowTable, CapacityBoundHoldsWithStalestEviction) {
  ActiveFlowTable table(small_cfg(/*capacity=*/4));
  // 3 old keys at interval 0, refreshed key 2 at interval 1, then 3 new
  // keys at interval 2: evictions must take the stalest (0, then 1).
  std::vector<FlowCandidate> old_keys;
  for (std::uint64_t k = 0; k < 3; ++k) {
    old_keys.push_back(
        {KeyKind::DipDport,
         pack_ip_port(IPv4(10, 0, 0, static_cast<std::uint8_t>(k + 1)), 80)});
  }
  table.install(old_keys, 0);
  table.install({old_keys[2]}, 1);  // refresh -> not stalest anymore
  std::vector<FlowCandidate> new_keys;
  for (std::uint64_t k = 0; k < 3; ++k) {
    new_keys.push_back({KeyKind::SipDip,
                        pack_ip_ip(IPv4{static_cast<std::uint32_t>(k + 7)},
                                     IPv4(2, 2, 2, 2))});
  }
  table.install(new_keys, 2);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.evicted(), 2u);
  const FlowEvidence ev = table.seal(3);
  // The refreshed old key survived; all three new keys are present.
  EXPECT_NE(find_entry(ev, old_keys[2].kind, old_keys[2].key), nullptr);
  for (const FlowCandidate& c : new_keys) {
    EXPECT_NE(find_entry(ev, c.kind, c.key), nullptr);
  }
}

TEST(ActiveFlowTable, IdleEntriesAgeOutAtSeal) {
  FlowRefineryConfig cfg = small_cfg();
  cfg.max_idle_intervals = 2;
  ActiveFlowTable table(cfg);
  const std::uint64_t key = pack_ip_port(IPv4(1, 1, 1, 1), 80);
  table.install({{KeyKind::DipDport, key}}, 0);
  EXPECT_NE(find_entry(table.seal(1), KeyKind::DipDport, key), nullptr);
  // interval 2 - last_flagged 0 >= 2: evicted at this seal (still reported
  // one last time), gone from the next.
  table.seal(2);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evicted(), 1u);
}

// ---------------------------------------------------------------------------
// refine_alerts

Alert make_alert(KeyKind kind, std::uint64_t key, double magnitude = 100.0) {
  Alert a;
  a.type = AttackType::kSynFlooding;
  a.key_kind = kind;
  a.key = key;
  a.magnitude = magnitude;
  return a;
}

FlowEvidenceEntry evidence_entry(KeyKind kind, std::uint64_t key, double syn,
                                 double synack, bool full = true) {
  FlowEvidenceEntry e;
  e.kind = kind;
  e.key = key;
  e.syn = syn;
  e.synack = synack;
  e.full_interval = full;
  return e;
}

TEST(RefineAlerts, ConfirmsKillsAndPassesThrough) {
  // threshold 60, confirm_fraction 0.5 -> exact unresponded >= 30 confirms.
  const std::uint64_t real = pack_ip_port(IPv4(1, 1, 1, 1), 80);
  const std::uint64_t phantom = pack_ip_port(IPv4(2, 2, 2, 2), 80);
  const std::uint64_t unseen = pack_ip_port(IPv4(3, 3, 3, 3), 80);
  const std::uint64_t fresh = pack_ip_port(IPv4(4, 4, 4, 4), 80);
  FlowEvidence ev;
  ev.entries = {
      evidence_entry(KeyKind::DipDport, real, 200.0, 10.0),
      // A collision phantom: the sketch shouted, the exact counters show
      // almost nothing un-responded.
      evidence_entry(KeyKind::DipDport, phantom, 5.0, 3.0),
      evidence_entry(KeyKind::DipDport, fresh, 500.0, 0.0, /*full=*/false),
  };
  const std::vector<Alert> final_alerts = {
      make_alert(KeyKind::DipDport, real),
      make_alert(KeyKind::DipDport, phantom),
      make_alert(KeyKind::DipDport, unseen),
      make_alert(KeyKind::DipDport, fresh),
  };
  const RefinementOutcome out =
      refine_alerts(final_alerts, ev, /*interval_threshold=*/60.0,
                    FlowRefineryConfig{});
  EXPECT_TRUE(out.report.active);
  EXPECT_EQ(out.report.tracked, 3u);
  EXPECT_EQ(out.report.confirmed, 1u);
  EXPECT_EQ(out.report.killed, 1u);
  EXPECT_EQ(out.report.unverified, 2u);  // unseen + partial-evidence fresh
  ASSERT_EQ(out.refined.size(), 3u);
  EXPECT_EQ(out.refined[0].key, real);
  EXPECT_EQ(out.refined[1].key, unseen);
  EXPECT_EQ(out.refined[2].key, fresh);
}

TEST(RefineAlerts, DisabledConfigPassesEverythingUnrefined) {
  FlowRefineryConfig cfg;
  cfg.enabled = false;
  const std::vector<Alert> final_alerts = {
      make_alert(KeyKind::DipDport, pack_ip_port(IPv4(2, 2, 2, 2), 80))};
  FlowEvidence ev;
  ev.entries = {evidence_entry(KeyKind::DipDport,
                               pack_ip_port(IPv4(2, 2, 2, 2), 80), 0.0, 0.0)};
  const RefinementOutcome out = refine_alerts(final_alerts, ev, 60.0, cfg);
  EXPECT_FALSE(out.report.active);
  EXPECT_EQ(out.refined, final_alerts);
}

TEST(RefineAlerts, VerdictsArePureFunctionOfInputs) {
  // Same (alerts, evidence, config) => same outcome, call after call — the
  // determinism contract the epoch thread relies on.
  FlowEvidence ev;
  ev.entries = {
      evidence_entry(KeyKind::DipDport, pack_ip_port(IPv4(1, 1, 1, 1), 80),
                     40.0, 5.0),
      evidence_entry(KeyKind::SipDip,
                     pack_ip_ip(IPv4(6, 6, 6, 6), IPv4(1, 1, 1, 1)), 2.0,
                     1.0),
  };
  const std::vector<Alert> final_alerts = {
      make_alert(KeyKind::DipDport, pack_ip_port(IPv4(1, 1, 1, 1), 80)),
      make_alert(KeyKind::SipDip,
                 pack_ip_ip(IPv4(6, 6, 6, 6), IPv4(1, 1, 1, 1))),
  };
  const RefinementOutcome a =
      refine_alerts(final_alerts, ev, 60.0, FlowRefineryConfig{});
  const RefinementOutcome b =
      refine_alerts(final_alerts, ev, 60.0, FlowRefineryConfig{});
  EXPECT_EQ(a.refined, b.refined);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.report.confirmed, 1u);
  EXPECT_EQ(a.report.killed, 1u);
}

std::vector<FlowCandidate> flood_candidates(std::size_t n,
                                            std::uint64_t base) {
  std::vector<FlowCandidate> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = {KeyKind::DipDport, base + i};
  }
  return c;
}

TEST(CandidateBloomGate, FloodInstallRateIsCappedToRepeatOffenders) {
  // A flagged-key flood: 10k distinct candidates in one interval, none ever
  // seen before. The Bloom gate must keep (almost) all of them out of the
  // exact table — without it the flood would churn the full capacity
  // through evict_stalest() every interval.
  FlowRefineryConfig cfg = small_cfg(/*capacity=*/4096);
  cfg.bloom_gate_min_candidates = 1024;
  ActiveFlowTable table(cfg);

  // A real attack key, flagged in the previous interval (benign load, no
  // gate), must survive the flood untouched.
  const std::uint64_t real_key = pack_ip_port(IPv4(1, 2, 3, 4), 80);
  table.install({{KeyKind::DipDport, real_key}}, /*interval=*/0);
  ASSERT_EQ(table.size(), 1u);

  table.seal(/*interval=*/1);
  table.install(flood_candidates(10000, /*base=*/1u << 20), /*interval=*/1);
  // First sighting under flood: rejected wholesale (a handful of Bloom
  // false positives notwithstanding), and the previously-installed key is
  // still tracked.
  EXPECT_GE(table.bloom_rejected(), 9900u);
  EXPECT_LE(table.size(), 100u);

  // Repeat offenders DO get in: the same flood next interval tests positive
  // against the previous generation (up to the per-generation insert cap).
  table.seal(/*interval=*/2);
  table.install(flood_candidates(10000, /*base=*/1u << 20), /*interval=*/2);
  EXPECT_GE(table.size(), 1000u);
  EXPECT_LE(table.size(), cfg.capacity);
}

TEST(CandidateBloomGate, BenignInstallRatesAreUnaffected) {
  FlowRefineryConfig cfg = small_cfg(/*capacity=*/4096);
  cfg.bloom_gate_min_candidates = 1024;
  ActiveFlowTable table(cfg);
  // 100 first-sighting candidates — normal alert volume, below the gate
  // threshold: every one installs exactly as before the filter existed.
  table.install(flood_candidates(100, /*base=*/7), /*interval=*/0);
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.bloom_rejected(), 0u);
}

TEST(CandidateBloomGate, GateDisabledByZeroThreshold) {
  FlowRefineryConfig cfg = small_cfg(/*capacity=*/100000);
  cfg.bloom_gate_min_candidates = 0;
  ActiveFlowTable table(cfg);
  table.install(flood_candidates(10000, /*base=*/3), /*interval=*/0);
  EXPECT_EQ(table.size(), 10000u);
  EXPECT_EQ(table.bloom_rejected(), 0u);
}

TEST(CandidateBloomGate, FloodDecisionsAreDeterministic) {
  // Two identical tables fed the identical flood make identical admission
  // decisions — the gate may not add any run-to-run variance to the
  // refinement pipeline.
  FlowRefineryConfig cfg = small_cfg(/*capacity=*/4096);
  cfg.bloom_gate_min_candidates = 64;
  ActiveFlowTable a(cfg), b(cfg);
  for (std::uint64_t interval = 0; interval < 4; ++interval) {
    a.seal(interval);
    b.seal(interval);
    const auto flood = flood_candidates(5000, /*base=*/interval * 1000);
    a.install(flood, interval);
    b.install(flood, interval);
    ASSERT_EQ(a.size(), b.size()) << "interval " << interval;
    ASSERT_EQ(a.bloom_rejected(), b.bloom_rejected())
        << "interval " << interval;
  }
}

TEST(CandidateBloomGate, RejectsSizesBelowOneWordOrBeyondShiftWidth) {
  // Below 2^6 bits a generation would have zero 64-bit words while the mask
  // still addresses 2^b bits; at 2^64 the size shift itself is undefined.
  for (const std::size_t bits_log2 : {0, 1, 5, 64, 65}) {
    EXPECT_THROW(CandidateBloom(1, bits_log2, 16), std::invalid_argument)
        << bits_log2;
    FlowRefineryConfig cfg = small_cfg();
    cfg.bloom_bits_log2 = bits_log2;
    EXPECT_THROW(ActiveFlowTable{cfg}, std::invalid_argument) << bits_log2;
  }
  // The smallest legal filter (one word per generation) works.
  CandidateBloom bloom(1, 6, 16);
  bloom.insert(KeyKind::DipDport, 42);
  EXPECT_TRUE(bloom.test(KeyKind::DipDport, 42));
  bloom.rotate();
  EXPECT_TRUE(bloom.test(KeyKind::DipDport, 42));
  bloom.rotate();
  EXPECT_FALSE(bloom.test(KeyKind::DipDport, 42));
}

}  // namespace
}  // namespace hifind
