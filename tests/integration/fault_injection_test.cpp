// End-to-end fault injection over the distributed collection path (ISSUE
// acceptance scenario): 8 routers feed one central detector through a
// FaultyChannel. With a clean channel the resilient path must reproduce the
// perfect-network aggregation bit-for-bit; with seeded drop / corrupt /
// duplicate / delay faults plus an outage on one router, the detector must
// still report every victim the full-coverage run reports, every affected
// interval must carry an accurate degraded CoverageReport, and no corrupt
// frame may ever leak into a combined bank.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "../testing/synthetic.hpp"
#include "common/hash.hpp"
#include "detect/load_shedder.hpp"
#include "detect/sketch_wire.hpp"
#include "router/collector.hpp"
#include "router/distributed.hpp"
#include "router/faulty_channel.hpp"

namespace hifind {
namespace {

using testing::syn_packet;
using testing::synack_packet;

constexpr std::size_t kRouters = 8;
constexpr std::uint64_t kCompare = 10;  ///< intervals under test
constexpr std::uint64_t kFeed = kCompare + 3;  ///< extra so stragglers flush

const IPv4 kFloodVictim = IPv4(129, 105, 9, 9);
constexpr std::uint16_t kFloodPort = 80;
const IPv4 kScanAttacker = IPv4(6, 6, 6, 6);
constexpr std::uint16_t kScanPort = 23;

SketchBankConfig bank_cfg() {
  // Paper-shaped (6-stage) but small: the scenario ships 8 routers x 13
  // intervals of frames, so per-frame size dominates test wall-time.
  SketchBankConfig c;
  c.seed = 42;
  c.rs48.bucket_bits = 12;
  c.rs64.bucket_bits = 8;
  c.verification.num_buckets = 1u << 10;
  c.original.num_buckets = 1u << 10;
  c.twod.x_buckets = 1u << 8;
  c.twod.y_buckets = 16;
  return c;
}

HifindDetectorConfig det_cfg() {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  c.min_persist_intervals = 1;
  return c;
}

CollectorConfig coll_cfg() {
  CollectorConfig c;
  c.num_routers = kRouters;
  c.fetch_attempts_per_poll = 2;
  c.deadline_polls = 2;
  c.quarantine_after = 100;  // this scenario studies loss, not quarantine
  return c;
}

/// One interval of traffic: benign handshakes always; from interval 2 on, a
/// spoofed SYN flood and a horizontal scan. Deterministic given `rng`. The
/// sink only needs feed() — a DistributedMonitor or the shedded fleet below.
template <class Mon>
void feed_interval(Mon& mon, std::uint64_t iv, Pcg32& rng) {
  for (int i = 0; i < 80; ++i) {
    const IPv4 client{0x0a000000u + static_cast<std::uint32_t>(i)};
    const auto sport = static_cast<std::uint16_t>(30000 + i);
    mon.feed(syn_packet(iv, client, IPv4(129, 105, 1, 1), 443, sport));
    mon.feed(synack_packet(iv, IPv4(129, 105, 1, 1), 443, client, sport));
  }
  // The flood victim runs a live service (benign handshakes complete), so
  // the phase-3 dead-service heuristic must keep its flood alert.
  for (int i = 0; i < 40; ++i) {
    const IPv4 client{0x0b000000u + static_cast<std::uint32_t>(i)};
    const auto sport = static_cast<std::uint16_t>(20000 + i);
    mon.feed(syn_packet(iv, client, kFloodVictim, kFloodPort, sport));
    mon.feed(synack_packet(iv, kFloodVictim, kFloodPort, client, sport));
  }
  if (iv < 2) return;
  for (int i = 0; i < 500; ++i) {  // spoofed flood at kFloodVictim:80
    mon.feed(syn_packet(iv, IPv4{rng.next()}, kFloodVictim, kFloodPort,
                        static_cast<std::uint16_t>(1024 + i)));
  }
  for (int i = 0; i < 200; ++i) {  // horizontal scan on port 23
    const IPv4 target{0x81700000u + static_cast<std::uint32_t>(i)};
    mon.feed(syn_packet(iv, kScanAttacker, target, kScanPort));
  }
}

/// (type, key) pairs of an interval's final alerts.
std::set<std::pair<AttackType, std::uint64_t>> alert_keys(
    const IntervalResult& r) {
  std::set<std::pair<AttackType, std::uint64_t>> keys;
  for (const Alert& a : r.final) keys.emplace(a.type, a.key);
  return keys;
}

/// Runs the perfect-network reference: same traffic, same splitter seed,
/// DistributedMonitor::end_interval.
std::vector<IntervalResult> reference_run() {
  DistributedMonitor mon(kRouters, bank_cfg(), det_cfg(), /*splitter_seed=*/7);
  Pcg32 traffic_rng(1234);
  std::vector<IntervalResult> out;
  for (std::uint64_t iv = 0; iv < kFeed; ++iv) {
    feed_interval(mon, iv, traffic_rng);
    out.push_back(mon.end_interval(iv));
  }
  return out;
}

/// Runs the resilient path over `chan`; results indexed by interval.
std::map<std::uint64_t, IntervalResult> resilient_run(FaultyChannel& chan) {
  DistributedMonitor mon(kRouters, bank_cfg(), det_cfg(), /*splitter_seed=*/7);
  Pcg32 traffic_rng(1234);
  ResilientAggregator agg(coll_cfg(), bank_cfg(), det_cfg(),
                          [&](std::size_t r, std::uint64_t iv) {
                            return chan.fetch(r, iv);
                          });
  std::map<std::uint64_t, IntervalResult> out;
  for (std::uint64_t iv = 0; iv < kFeed; ++iv) {
    feed_interval(mon, iv, traffic_rng);
    for (std::size_t r = 0; r < kRouters; ++r) {
      chan.ship(r, iv, mon.ship_and_clear(r, iv));
    }
    chan.advance_to(iv);
    for (auto& res : agg.end_interval(iv)) {
      out.emplace(res.interval, std::move(res));
    }
  }
  return out;
}

TEST(FaultInjectionTest, CleanChannelMatchesPerfectNetworkExactly) {
  const auto ref = reference_run();
  FaultyChannel chan(kRouters, /*seed=*/11);  // no faults configured
  const auto got = resilient_run(chan);

  for (std::uint64_t iv = 0; iv < kCompare; ++iv) {
    ASSERT_TRUE(got.count(iv)) << "interval " << iv << " never finalized";
    const IntervalResult& g = got.at(iv);
    const IntervalResult& r = ref[iv];
    EXPECT_FALSE(g.coverage.degraded);
    EXPECT_EQ(g.coverage.routers_combined.size(), kRouters);
    ASSERT_EQ(g.final.size(), r.final.size()) << "interval " << iv;
    for (std::size_t j = 0; j < g.final.size(); ++j) {
      EXPECT_EQ(g.final[j].type, r.final[j].type);
      EXPECT_EQ(g.final[j].key, r.final[j].key);
      EXPECT_DOUBLE_EQ(g.final[j].magnitude, r.final[j].magnitude);
    }
  }
  // The comparison covered real detections, not empty interval lists.
  std::size_t total_alerts = 0;
  for (std::uint64_t iv = 0; iv < kCompare; ++iv) {
    total_alerts += ref[iv].final.size();
  }
  EXPECT_GE(total_alerts, 2u);
}

TEST(FaultInjectionTest, SingleFaultyRouterNeitherHidesVictimsNorLiesAboutIt) {
  const auto ref = reference_run();

  // Victims the full-coverage run reports (flood victim + scanner), per
  // interval. Sanity: both attacks are actually detected.
  bool saw_flood = false, saw_scan = false;
  for (std::uint64_t iv = 0; iv < kCompare; ++iv) {
    for (const Alert& a : ref[iv].final) {
      saw_flood |= a.type == AttackType::kSynFlooding &&
                   a.key == pack_ip_port(kFloodVictim, kFloodPort);
      saw_scan |= a.type == AttackType::kHorizontalScan;
    }
  }
  ASSERT_TRUE(saw_flood) << "reference run must detect the flood";
  ASSERT_TRUE(saw_scan) << "reference run must detect the scan";

  // Router 7 misbehaves: transient drops, corruption the CRC must catch,
  // replays, one-interval delivery delay — and a hard outage for intervals
  // 4..5 that no deadline can ride out.
  FaultyChannel chan(kRouters, /*seed=*/20260806);
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.3;
  plan.duplicate_prob = 0.1;
  plan.delay_intervals = 1;
  chan.set_plan(7, plan);
  chan.set_outage(7, 4, 5);

  const auto got = resilient_run(chan);
  EXPECT_GT(chan.frames_corrupted(), 0u) << "faults never fired";
  EXPECT_GT(chan.fetches_suppressed(), 0u);

  std::size_t degraded_intervals = 0;
  for (std::uint64_t iv = 0; iv < kCompare; ++iv) {
    ASSERT_TRUE(got.count(iv)) << "interval " << iv << " never finalized";
    const IntervalResult& g = got.at(iv);

    // Coverage honesty: only router 7 may ever go missing, and the degraded
    // flag must agree with the missing list exactly.
    EXPECT_EQ(g.coverage.routers_total, kRouters);
    EXPECT_EQ(g.coverage.degraded, !g.coverage.routers_missing.empty());
    if (g.coverage.degraded) {
      ++degraded_intervals;
      EXPECT_EQ(g.coverage.routers_missing, (std::vector<std::uint32_t>{7}))
          << "interval " << iv;
      EXPECT_EQ(g.coverage.routers_combined.size(), kRouters - 1);
      EXPECT_DOUBLE_EQ(g.coverage.fraction, 7.0 / 8.0);
    } else {
      EXPECT_EQ(g.coverage.routers_combined.size(), kRouters);
    }

    // Detection resilience: every victim the full-coverage run reports is
    // still reported under the faults.
    const auto want = alert_keys(ref[iv]);
    const auto have = alert_keys(g);
    for (const auto& [type, key] : want) {
      EXPECT_TRUE(have.count({type, key}))
          << "interval " << iv << ": lost " << attack_type_name(type)
          << " victim under single-router faults";
    }
  }
  // The outage window guarantees at least intervals 4 and 5 degrade.
  EXPECT_GE(degraded_intervals, 2u);
  EXPECT_TRUE(got.at(4).coverage.degraded);
  EXPECT_TRUE(got.at(5).coverage.degraded);
}

TEST(FaultInjectionTest, CorruptFramesNeverReachTheCombinedBank) {
  // Aggressive corruption on every router; bit-compare each finalized
  // interval's partial sum against a clean COMBINE of exactly the banks the
  // collector accepted, and each accepted bank against what was shipped.
  DistributedMonitor mon(kRouters, bank_cfg(), det_cfg(), /*splitter_seed=*/7);
  Pcg32 traffic_rng(99);
  FaultyChannel chan(kRouters, /*seed=*/31337);
  for (std::size_t r = 0; r < kRouters; ++r) {
    FaultPlan plan;
    plan.corrupt_prob = 0.5;
    plan.corrupt_byte_flips = 1 + r;  // include single-bit-ish minimal flips
    chan.set_plan(r, plan);
  }
  CollectorState coll(coll_cfg(), bank_cfg(),
                      [&](std::size_t r, std::uint64_t iv) {
                        return chan.fetch(r, iv);
                      });

  // Clean serialized bytes of every shipped bank, for the bit-compare.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<std::uint8_t>>
      shipped;
  std::size_t intervals_checked = 0, banks_checked = 0;
  for (std::uint64_t iv = 0; iv < kFeed; ++iv) {
    feed_interval(mon, iv, traffic_rng);
    for (std::size_t r = 0; r < kRouters; ++r) {
      shipped[{static_cast<std::uint32_t>(r), iv}] =
          serialize_frame(mon.bank(r), 0, 0);
      chan.ship(r, iv, mon.ship_and_clear(r, iv));
    }
    chan.advance_to(iv);
    for (const FinalizedInterval& f : coll.poll(iv)) {
      std::vector<const SketchBank*> terms;
      for (const auto& [router, bank] : f.banks) {
        // Accepted bank is byte-identical to what the router shipped.
        EXPECT_EQ(serialize_frame(bank, 0, 0),
                  shipped.at({router, f.interval}))
            << "router " << router << " interval " << f.interval;
        terms.push_back(&bank);
        ++banks_checked;
      }
      // Partial sum is byte-identical to the clean COMBINE of those banks.
      SketchBank sum(f.partial_sum.config());
      sum.merge_shards(terms);
      EXPECT_EQ(serialize_frame(f.partial_sum, 0, 0),
                serialize_frame(sum, 0, 0))
          << "interval " << f.interval;
      ++intervals_checked;
    }
  }
  EXPECT_GT(chan.frames_corrupted(), 10u) << "corruption never fired";
  EXPECT_GT(coll.stats().frames_corrupt, 10u);
  EXPECT_GE(intervals_checked, kCompare);
  EXPECT_GT(banks_checked, kRouters * kCompare / 2);
}

/// Routers with a LOCAL load shedder in front of each bank: admitted ops are
/// recorded with the inline 2^k compensation weight, exactly like the
/// overlapped pipeline's ingest path. The flow-coherent hash split is the
/// same for every fleet instance, so a shedded run and an unshedded run
/// route each packet to the same router.
struct SheddedRouterFleet {
  std::vector<SketchBank> banks;
  std::vector<LoadShedder> shedders;

  explicit SheddedRouterFleet(const LoadShedderConfig& shed_cfg) {
    banks.reserve(kRouters);
    shedders.reserve(kRouters);
    for (std::size_t r = 0; r < kRouters; ++r) {
      banks.emplace_back(bank_cfg());
      shedders.emplace_back(shed_cfg);
    }
  }

  void feed(const PacketRecord& p) {
    RecordOp op{};
    if (!make_record_op(p, 1.0, op)) return;
    const std::size_t r = mix64(op.k_sip_dip ^ 0xf1ee7) % kRouters;
    const double w = shedders[r].admit(op);
    if (w != 0.0) banks[r].record(p, w);
  }

  /// Seals every router's interval; returns the fleet-wide sampled fraction.
  double seal_interval() {
    std::uint64_t offered = 0, admitted = 0;
    for (LoadShedder& s : shedders) {
      const ShedReport r = s.seal_interval();
      offered += r.ops_offered;
      admitted += r.ops_admitted;
    }
    return offered == 0 ? 1.0
                        : static_cast<double>(admitted) /
                              static_cast<double>(offered);
  }
};

TEST(FaultInjectionTest, OutagePlusLocalSheddingComposesCoverageOnce) {
  // A channel outage (collector rescales the partial sum by 1/fraction) and
  // local load shedding (compensation is INLINE in the recorded weights)
  // land in the same intervals. The two mechanisms must compose: the
  // collector rescale covers only the missing router, never the shed
  // fraction — a double-rescale would inflate attack magnitudes ~2x at the
  // 1/2 shed rate used here.
  const LoadShedderConfig no_shed{};  // disabled: budget 0, level 0
  LoadShedderConfig half_shed;
  half_shed.initial_level = 1;               // pinned 2^-1 sampling
  half_shed.restore_levels_per_interval = 0; // hold the level across seals

  // Surge heuristic off (for BOTH runs): it compares two forecast errors
  // that both decay as the forecaster adapts to the steady flood, so by
  // mid-run it sits on a knife edge where benign sampling noise flips it.
  // This test pins coverage composition, not phase-3 margins.
  HifindDetectorConfig det = det_cfg();
  det.min_syn_surge_fraction = 0.0;

  auto run = [&](const LoadShedderConfig& shed_cfg, FaultyChannel& chan,
                 std::vector<double>* coverage_by_interval) {
    SheddedRouterFleet fleet(shed_cfg);
    Pcg32 traffic_rng(1234);
    ResilientAggregator agg(coll_cfg(), bank_cfg(), det,
                            [&](std::size_t r, std::uint64_t iv) {
                              return chan.fetch(r, iv);
                            });
    std::map<std::uint64_t, IntervalResult> out;
    for (std::uint64_t iv = 0; iv < kFeed; ++iv) {
      feed_interval(fleet, iv, traffic_rng);
      for (std::size_t r = 0; r < kRouters; ++r) {
        chan.ship(r, iv, serialize_frame(fleet.banks[r],
                                         static_cast<std::uint32_t>(r), iv));
        fleet.banks[r].clear();
      }
      if (coverage_by_interval) {
        coverage_by_interval->push_back(fleet.seal_interval());
      } else {
        fleet.seal_interval();
      }
      chan.advance_to(iv);
      for (auto& res : agg.end_interval(iv)) {
        out.emplace(res.interval, std::move(res));
      }
    }
    return out;
  };

  FaultyChannel clean(kRouters, /*seed=*/11);
  const auto ref = run(no_shed, clean, nullptr);

  FaultyChannel faulty(kRouters, /*seed=*/11);
  faulty.set_outage(7, 4, 5);
  std::vector<double> shed_coverage;
  const auto got = run(half_shed, faulty, &shed_coverage);

  std::size_t alerts_compared = 0;
  for (std::uint64_t iv = 0; iv < kCompare; ++iv) {
    ASSERT_TRUE(ref.count(iv) && got.count(iv)) << "interval " << iv;
    const IntervalResult& r = ref.at(iv);
    IntervalResult g = got.at(iv);

    // Local shedding is invisible to the channel-coverage accounting; only
    // the outage degrades it. The two compose multiplicatively once the
    // router's shed coverage is stamped in.
    const bool outage = iv == 4 || iv == 5;
    EXPECT_EQ(g.coverage.degraded, outage) << "interval " << iv;
    EXPECT_DOUBLE_EQ(g.coverage.fraction, outage ? 7.0 / 8.0 : 1.0);
    ASSERT_LT(iv, shed_coverage.size());
    EXPECT_NEAR(shed_coverage[iv], 0.5, 0.1) << "interval " << iv;
    g.coverage.sample_coverage = shed_coverage[iv];
    EXPECT_DOUBLE_EQ(g.coverage.effective_coverage(),
                     g.coverage.fraction * shed_coverage[iv]);

    // Every victim with real margin above the detection threshold survives.
    // (As the forecaster adapts to the steady attacks, alert magnitudes
    // decay toward the threshold; an alert within a few percent of it is
    // legitimately flippable by ANY unbiased estimator's noise, so only
    // alerts with >= 25% headroom are required to reproduce.)
    const double margin_floor = 1.25 * det.interval_threshold();
    const auto have = alert_keys(g);
    for (const Alert& ra : r.final) {
      if (ra.magnitude < margin_floor) continue;
      ASSERT_TRUE(have.count({ra.type, ra.key}))
          << "interval " << iv << ": lost " << attack_type_name(ra.type)
          << " victim under shed + outage";
    }
    for (const Alert& ra : r.final) {
      for (const Alert& ga : g.final) {
        if (ga.type != ra.type || ga.key != ra.key) continue;
        const double ratio = ga.magnitude / ra.magnitude;
        EXPECT_GT(ratio, 0.6) << "interval " << iv << " "
                              << attack_type_name(ra.type);
        EXPECT_LT(ratio, 1.6)
            << "interval " << iv << " " << attack_type_name(ra.type)
            << ": magnitude inflated — coverage rescaled twice?";
        ++alerts_compared;
      }
    }
  }
  EXPECT_GE(alerts_compared, 2u) << "magnitude check never ran";
}

}  // namespace
}  // namespace hifind
