#include "detect/hifind.hpp"

#include <gtest/gtest.h>

#include "../testing/synthetic.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::feed_hscan;
using testing::feed_vscan;
using testing::syn_packet;
using testing::synack_packet;

SketchBankConfig bank_cfg(std::uint64_t seed = 42) {
  SketchBankConfig c;
  c.seed = seed;
  c.twod.x_buckets = 1u << 10;
  return c;
}

HifindDetectorConfig det_cfg() {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  c.syn_rate_threshold = 1.0;  // 60 per interval
  c.min_persist_intervals = 1;  // isolate per-interval behaviour by default
  return c;
}

/// Feeds a benign baseline so forecasters have a stable floor and flood
/// victims acquire SYN/ACK history.
void feed_baseline(SketchBank& bank) {
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
  feed_completed(bank, IPv4(100, 1, 1, 2), IPv4(129, 105, 1, 2), 80, 30);
  feed_completed(bank, IPv4(100, 1, 1, 3), IPv4(129, 105, 1, 3), 22, 20);
}

class HifindDetectorTest : public ::testing::Test {
 protected:
  HifindDetectorTest() : bank_(bank_cfg()), detector_(det_cfg()) {}

  /// Runs one interval: baseline + extra packets fed by `fill`.
  template <class Fill>
  IntervalResult interval(Fill&& fill) {
    feed_baseline(bank_);
    fill(bank_);
    const IntervalResult r = detector_.process(bank_, interval_index_++);
    bank_.clear();
    return r;
  }

  IntervalResult quiet_interval() {
    return interval([](SketchBank&) {});
  }

  SketchBank bank_;
  HifindDetector detector_;
  std::uint64_t interval_index_{0};
  Pcg32 rng_{std::uint64_t{1234}};
};

TEST_F(HifindDetectorTest, FirstIntervalWarmsUpSilently) {
  const IntervalResult r = quiet_interval();
  EXPECT_TRUE(r.raw.empty());
  EXPECT_TRUE(r.final.empty());
}

TEST_F(HifindDetectorTest, QuietTrafficRaisesNothing) {
  quiet_interval();
  for (int i = 0; i < 5; ++i) {
    const IntervalResult r = quiet_interval();
    EXPECT_TRUE(r.raw.empty()) << "interval " << i;
  }
}

TEST_F(HifindDetectorTest, SpoofedFloodDetectedWithVictimKey) {
  quiet_interval();
  const IPv4 victim(129, 105, 1, 1);  // has SYN/ACK history from baseline
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, victim, 443, 500, /*spoofed=*/true, rng_);
  });
  ASSERT_GE(IntervalResult::count(r.raw, AttackType::kSynFlooding), 1u);
  bool found = false;
  for (const Alert& a : r.final) {
    if (a.type == AttackType::kSynFlooding && a.dip() == victim &&
        a.dport() == 443) {
      found = true;
      EXPECT_NEAR(a.magnitude, 500.0, 100.0);
    }
  }
  EXPECT_TRUE(found) << "victim {DIP,Dport} must be recoverable";
}

TEST_F(HifindDetectorTest, SpoofedFloodDoesNotRaiseScanAlerts) {
  quiet_interval();
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, IPv4(129, 105, 1, 1), 443, 800, /*spoofed=*/true, rng_);
  });
  // Spoofed sources each send one SYN: no {SIP,*} key accumulates.
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kHorizontalScan), 0u);
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kVerticalScan), 0u);
}

TEST_F(HifindDetectorTest, NonSpoofedFloodClassifiedNotScan) {
  quiet_interval();
  const IPv4 attacker(66, 1, 2, 3);
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, IPv4(129, 105, 1, 1), 443, 400, /*spoofed=*/false, rng_,
               attacker);
  });
  EXPECT_GE(IntervalResult::count(r.raw, AttackType::kSynFlooding), 1u);
  // Steps 2/3 must route the attacker through the flooding sets, not the
  // scan branches.
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kVerticalScan), 0u);
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kHorizontalScan), 0u);
  EXPECT_GE(
      IntervalResult::count(r.raw, AttackType::kNonSpoofedSynFlooding), 1u);
}

TEST_F(HifindDetectorTest, HorizontalScanDetectedWithScannerKey) {
  quiet_interval();
  const IPv4 scanner(6, 6, 6, 6);
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_hscan(b, scanner, 1433, 300);
  });
  bool found = false;
  for (const Alert& a : r.final) {
    if (a.type == AttackType::kHorizontalScan && a.sip() == scanner &&
        a.dport() == 1433) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kSynFlooding), 0u)
      << "an hscan spreads over DIPs; no {DIP,Dport} key should fire";
}

TEST_F(HifindDetectorTest, VerticalScanDetectedWithPairKey) {
  quiet_interval();
  const IPv4 scanner(7, 7, 7, 7);
  const IPv4 target(129, 105, 50, 50);
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_vscan(b, scanner, target, 300);
  });
  bool found = false;
  for (const Alert& a : r.final) {
    if (a.type == AttackType::kVerticalScan && a.sip() == scanner &&
        a.dip() == target) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HifindDetectorTest, MixedAttacksSeparatedSimultaneously) {
  // The paper's headline claim: a MIX of attacks in one interval is
  // separated into the right classes with the right keys.
  quiet_interval();
  const IPv4 victim(129, 105, 1, 1);
  const IPv4 hscanner(6, 6, 6, 6);
  const IPv4 vscanner(7, 7, 7, 7);
  const IPv4 vtarget(129, 105, 50, 50);
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, victim, 443, 600, /*spoofed=*/true, rng_);
    feed_hscan(b, hscanner, 445, 250);
    feed_vscan(b, vscanner, vtarget, 250);
  });
  EXPECT_GE(IntervalResult::count(r.final, AttackType::kSynFlooding), 1u);
  EXPECT_GE(IntervalResult::count(r.final, AttackType::kHorizontalScan), 1u);
  EXPECT_GE(IntervalResult::count(r.final, AttackType::kVerticalScan), 1u);
  for (const Alert& a : r.final) {
    switch (a.type) {
      case AttackType::kSynFlooding:
        EXPECT_EQ(a.dip(), victim);
        break;
      case AttackType::kHorizontalScan:
        EXPECT_EQ(a.sip(), hscanner);
        break;
      case AttackType::kVerticalScan:
        EXPECT_EQ(a.sip(), vscanner);
        break;
      default:
        break;
    }
  }
}

TEST_F(HifindDetectorTest, Phase2DropsSplitFloodMasqueradingAsVscan) {
  // A non-spoofed flood split over two ports of one victim: each {DIP,Dport}
  // half stays under threshold (step 1 misses), but {SIP,DIP} totals over
  // threshold => raw vertical-scan alert. The 2D sketch sees two dominant
  // ports (concentrated) and Phase 2 removes it.
  quiet_interval();
  const IPv4 attacker(5, 5, 5, 5);
  const IPv4 victim(129, 105, 1, 1);
  const IntervalResult r = interval([&](SketchBank& b) {
    for (int i = 0; i < 40; ++i) {
      b.record(syn_packet(i, attacker, victim, 80,
                          static_cast<std::uint16_t>(2000 + i)));
      b.record(syn_packet(i, attacker, victim, 443,
                          static_cast<std::uint16_t>(3000 + i)));
    }
  });
  EXPECT_GE(IntervalResult::count(r.raw, AttackType::kVerticalScan), 1u)
      << "step 2 should misread the split flood as a vscan";
  EXPECT_EQ(IntervalResult::count(r.after_2d, AttackType::kVerticalScan), 0u)
      << "phase 2 must remove it";
}

TEST_F(HifindDetectorTest, Phase2KeepsTrueScans) {
  quiet_interval();
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_vscan(b, IPv4(7, 7, 7, 7), IPv4(129, 105, 50, 50), 300);
    feed_hscan(b, IPv4(6, 6, 6, 6), 1433, 300);
  });
  EXPECT_EQ(IntervalResult::count(r.after_2d, AttackType::kVerticalScan),
            IntervalResult::count(r.raw, AttackType::kVerticalScan));
  EXPECT_EQ(IntervalResult::count(r.after_2d, AttackType::kHorizontalScan),
            IntervalResult::count(r.raw, AttackType::kHorizontalScan));
}

TEST_F(HifindDetectorTest, Phase3RatioFilterDropsFlashCrowd) {
  quiet_interval();
  const IPv4 service(129, 105, 1, 1);
  const IntervalResult r = interval([&](SketchBank& b) {
    // 600 SYNs, 70% answered: unresponded 180 > threshold, but ratio ~1.4.
    for (int i = 0; i < 600; ++i) {
      const IPv4 client{0x64000000u + static_cast<std::uint32_t>(i)};
      const auto sport = static_cast<std::uint16_t>(1024 + i % 60000);
      b.record(syn_packet(i, client, service, 443, sport));
      if (i % 10 < 7) {
        b.record(synack_packet(i, service, 443, client, sport));
      }
    }
  });
  EXPECT_GE(IntervalResult::count(r.after_2d, AttackType::kSynFlooding), 1u)
      << "raw detection should fire on the un-responded surplus";
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kSynFlooding), 0u)
      << "ratio heuristic must drop the flash crowd";
}

TEST_F(HifindDetectorTest, Phase3SurgeFilterDropsServerFailure) {
  // A failed server: the usual clients keep arriving at the usual rate but
  // nothing answers. Un-responded SYNs spike (raw flood alert) while the
  // #SYN arrival rate is UNCHANGED — the SYN-surge heuristic must drop it.
  const IPv4 server(129, 105, 1, 1);
  auto healthy = [&](SketchBank& b) {
    for (int i = 0; i < 200; ++i) {
      const IPv4 client{0x64000000u + static_cast<std::uint32_t>(i)};
      const auto sport = static_cast<std::uint16_t>(1024 + i);
      b.record(syn_packet(i, client, server, 443, sport));
      b.record(synack_packet(i, server, 443, client, sport));
    }
  };
  auto failed = [&](SketchBank& b) {
    for (int i = 0; i < 200; ++i) {
      const IPv4 client{0x64000000u + static_cast<std::uint32_t>(i)};
      b.record(syn_packet(i, client, server, 443,
                          static_cast<std::uint16_t>(1024 + i)));
      // no answers: the server is down
    }
  };
  interval(healthy);
  interval(healthy);
  const IntervalResult r = interval(failed);
  EXPECT_GE(IntervalResult::count(r.after_2d, AttackType::kSynFlooding), 1u)
      << "raw detection fires on the un-responded surplus";
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kSynFlooding), 0u)
      << "no #SYN surge => not a flood";
}

TEST_F(HifindDetectorTest, Phase3ServiceFilterDropsMisconfiguration) {
  quiet_interval();
  const IPv4 dead(129, 105, 77, 77);  // never SYN/ACKed in any interval
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, dead, 8080, 300, /*spoofed=*/true, rng_);
  });
  EXPECT_GE(IntervalResult::count(r.after_2d, AttackType::kSynFlooding), 1u);
  EXPECT_EQ(IntervalResult::count(r.final, AttackType::kSynFlooding), 0u)
      << "floods against never-live services are misconfigurations";
}

TEST_F(HifindDetectorTest, PersistenceFilterNeedsSecondInterval) {
  HifindDetectorConfig cfg = det_cfg();
  cfg.min_persist_intervals = 2;
  HifindDetector det(cfg);
  SketchBank bank(bank_cfg(7));
  Pcg32 rng(9);
  const IPv4 victim(129, 105, 1, 1);

  auto run = [&](bool flood) {
    feed_baseline(bank);
    if (flood) feed_flood(bank, victim, 443, 500, true, rng);
    static std::uint64_t idx = 0;
    const IntervalResult r = det.process(bank, idx++);
    bank.clear();
    return r;
  };

  run(false);  // warmup
  const IntervalResult first = run(true);
  EXPECT_EQ(IntervalResult::count(first.final, AttackType::kSynFlooding), 0u)
      << "first flood interval blocked by persistence";
  const IntervalResult second = run(true);
  EXPECT_GE(IntervalResult::count(second.final, AttackType::kSynFlooding), 1u)
      << "second consecutive interval passes";
}

TEST_F(HifindDetectorTest, PhasesCanBeDisabled) {
  HifindDetectorConfig cfg = det_cfg();
  cfg.enable_phase2 = false;
  cfg.enable_phase3 = false;
  HifindDetector det(cfg);
  SketchBank bank(bank_cfg(8));
  feed_baseline(bank);
  det.process(bank, 0);
  bank.clear();
  feed_baseline(bank);
  Pcg32 rng(3);
  feed_flood(bank, IPv4(129, 105, 77, 77), 8080, 300, true, rng);  // dead svc
  const IntervalResult r = det.process(bank, 1);
  EXPECT_EQ(r.final.size(), r.raw.size())
      << "with both phases off, final == raw";
}

TEST_F(HifindDetectorTest, ResetForgetsForecastState) {
  quiet_interval();
  quiet_interval();
  detector_.reset();
  // After reset the next interval is a warmup again: a flood is invisible.
  const IntervalResult r = interval([&](SketchBank& b) {
    feed_flood(b, IPv4(129, 105, 1, 1), 443, 500, true, rng_);
  });
  EXPECT_TRUE(r.raw.empty());
}

// A degraded coverage report rescales the bank as the detector reads it:
// at fraction 1/2 every counter and stage sum reads as 2 x counter, which
// is exactly the bank recorded at weight 2. Both detectors see the same
// forecaster inputs, 2D columns and Phase-3 estimates, so every phase's
// alerts match, magnitudes included.
TEST(HifindCoverageTest, HalfCoverageReadsLikeDoubleWeightRecording) {
  HifindDetectorConfig cfg = det_cfg();
  cfg.epoch_threads = 1;
  // A surge cut near 1 makes the flood alert depend on the OS forecast
  // error reading the scaled counters too.
  cfg.min_syn_surge_fraction = 0.9;
  HifindDetector scaled(cfg), weighted(cfg);
  CoverageReport half;
  half.routers_total = 2;
  half.routers_combined = {0};
  half.routers_missing = {1};
  half.fraction = 0.5;
  half.degraded = true;
  SketchBank bank(bank_cfg()), doubled(bank_cfg());
  std::size_t alerts = 0;
  for (std::uint64_t iv = 0; iv < 4; ++iv) {
    auto both = [&](const PacketRecord& p) {
      bank.record(p);
      doubled.record(p, 2.0);
    };
    feed_completed(both, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
    feed_completed(both, IPv4(100, 1, 1, 2), IPv4(129, 105, 1, 2), 80, 30);
    if (iv >= 2) {
      Pcg32 rng(iv);
      feed_flood(both, IPv4(129, 105, 1, 1), 443, 80, /*spoofed=*/true, rng);
      feed_hscan(both, IPv4(7, 7, 7, 7), 445, 60);
      feed_vscan(both, IPv4(8, 8, 8, 8), IPv4(129, 105, 3, 3), 60);
    }
    const IntervalResult a = scaled.process(bank, iv, half);
    const IntervalResult b = weighted.process(doubled, iv);
    EXPECT_EQ(a.raw, b.raw) << "interval " << iv;
    EXPECT_EQ(a.after_2d, b.after_2d) << "interval " << iv;
    EXPECT_EQ(a.final, b.final) << "interval " << iv;
    EXPECT_TRUE(a.coverage.degraded);
    alerts += a.final.size();
    bank.clear();
    doubled.clear();
  }
  EXPECT_GT(alerts, 0u) << "the comparison must not be vacuous";
}

}  // namespace
}  // namespace hifind
