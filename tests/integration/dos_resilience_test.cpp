// DoS-resilience (paper Sec. 3.5): a massive spoofed stream must neither
// grow HiFIND's memory nor mask a concurrent real attack — while TRW's state
// balloons and TRW-AC's cache aliases.
#include <gtest/gtest.h>

#include "baseline/trw.hpp"
#include "baseline/trw_ac.hpp"
#include "detect/hifind.hpp"
#include "detect/sketch_bank.hpp"

#include "../testing/synthetic.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::feed_hscan;
using testing::syn_packet;

SketchBankConfig bank_cfg() {
  SketchBankConfig c;
  c.seed = 42;
  c.twod.x_buckets = 1u << 10;
  return c;
}

HifindDetectorConfig det_cfg() {
  HifindDetectorConfig c;
  c.min_persist_intervals = 1;
  return c;
}

TEST(DosResilienceTest, HifindMemoryConstantUnderSpoofedStorm) {
  SketchBank bank(bank_cfg());
  const std::size_t before = bank.memory_bytes();
  Pcg32 rng(1);
  feed_flood(bank, IPv4(129, 105, 1, 1), 80, 100000, /*spoofed=*/true, rng);
  EXPECT_EQ(bank.memory_bytes(), before);
}

TEST(DosResilienceTest, ScanStillDetectedDuringSpoofedStorm) {
  SketchBank bank(bank_cfg());
  HifindDetector det(det_cfg());
  Pcg32 rng(2);

  auto baseline = [&] {
    feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
  };
  baseline();
  det.process(bank, 0);
  bank.clear();

  baseline();
  // 50k spoofed SYNs to RANDOM internal destinations (the TRW-AC poisoning
  // pattern) + one real horizontal scan of 300 targets.
  for (int i = 0; i < 50000; ++i) {
    bank.record(syn_packet(i, IPv4{rng.next()},
                           IPv4{0x8aa10000u | (rng.next() & 0xffff)},
                           static_cast<std::uint16_t>(rng.bounded(1024))));
  }
  const IPv4 scanner(6, 6, 6, 6);
  feed_hscan(bank, scanner, 445, 300);
  const IntervalResult r = det.process(bank, 1);

  bool scanner_found = false;
  for (const Alert& a : r.final) {
    if (a.type == AttackType::kHorizontalScan && a.sip() == scanner) {
      scanner_found = true;
    }
  }
  EXPECT_TRUE(scanner_found)
      << "spoofed noise spreads thin across buckets; the scan's {SIP,Dport} "
         "mass must still stand out";
}

TEST(DosResilienceTest, TrwStateExplodesWhereHifindIsFlat) {
  Trw trw{TrwConfig{}};
  SketchBank bank(bank_cfg());
  const std::size_t hifind_mem = bank.memory_bytes();
  Pcg32 rng(3);
  auto storm = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      const auto p =
          syn_packet(i, IPv4{rng.next()},
                     IPv4{0x8aa10000u | (rng.next() & 0xffff)}, 80);
      trw.observe(p);
      bank.record(p);
    }
  };
  storm(100000);
  const std::size_t trw_at_100k = trw.memory_bytes();
  storm(400000);
  // HiFIND: flat. TRW: linear in distinct spoofed sources.
  EXPECT_EQ(bank.memory_bytes(), hifind_mem);
  EXPECT_GT(trw.memory_bytes(), 4 * trw_at_100k)
      << "5x the spoofed packets must cost ~5x the TRW state";
  EXPECT_GT(trw.memory_bytes(), hifind_mem)
      << "half a million spoofed sources already dwarf the sketch bank";
}

TEST(DosResilienceTest, CollisionAttackNeedsTheSecretSeed) {
  // Paper Sec. 3.5: to create sketch collisions the attacker must reverse
  // engineer the hash functions. Simulate the strongest realistic attacker:
  // one who obtained a full HiFIND build and brute-forces keys that collide
  // with a victim's bucket in THEIR copy (wrong seed). Against the deployed
  // seed those keys spread like any other traffic; against a compromised
  // seed they do concentrate — quantifying exactly why the seed is the
  // secret.
  const ReversibleSketchConfig deployed_cfg{.key_bits = 48, .num_stages = 6,
                                            .bucket_bits = 12, .seed = 1234};
  const ReversibleSketchConfig attacker_cfg{.key_bits = 48, .num_stages = 6,
                                            .bucket_bits = 12, .seed = 9999};
  ReversibleSketch deployed(deployed_cfg);
  ReversibleSketch attacker_copy(attacker_cfg);

  const std::uint64_t victim_key = pack_ip_port(IPv4(129, 105, 1, 1), 80);
  // Attacker brute-forces 200 keys colliding with the victim in stage 0 of
  // THEIR copy.
  std::vector<std::uint64_t> crafted;
  const std::size_t target_bucket = attacker_copy.bucket_of(0, victim_key);
  for (std::uint64_t k = 0; crafted.size() < 200; ++k) {
    if (attacker_copy.bucket_of(0, k) == target_bucket) crafted.push_back(k);
  }
  // Fire each crafted key once at the deployed sketch.
  for (const std::uint64_t k : crafted) deployed.update(k, 1.0);

  // In the deployed sketch the crafted keys spread: the victim's bucket got
  // only its fair share, nowhere near an anomaly.
  EXPECT_LT(deployed.grid().at(0, deployed.bucket_of(0, victim_key)), 10.0)
      << "wrong-seed collisions must not concentrate";

  // Control: with the REAL seed the same attack does concentrate — the seed,
  // not obscurity of the algorithm, is what carries the resilience.
  ReversibleSketch informed(deployed_cfg);
  std::vector<std::uint64_t> insider;
  const std::size_t real_bucket = informed.bucket_of(0, victim_key);
  for (std::uint64_t k = 0; insider.size() < 200; ++k) {
    if (informed.bucket_of(0, k) == real_bucket) insider.push_back(k);
  }
  for (const std::uint64_t k : insider) informed.update(k, 1.0);
  EXPECT_NEAR(informed.grid().at(0, real_bucket), 200.0, 1e-9);
}

TEST(DosResilienceTest, SpoofedFloodToOneTargetReportedAsFlood) {
  // Sec 3.5: "if an attacker sends source-spoofed SYNs to a fixed
  // destination, our system will treat this as a SYN flooding attack".
  SketchBank bank(bank_cfg());
  HifindDetector det(det_cfg());
  Pcg32 rng(4);
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
  det.process(bank, 0);
  bank.clear();
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
  feed_flood(bank, IPv4(129, 105, 1, 1), 443, 5000, true, rng);
  const IntervalResult r = det.process(bank, 1);
  EXPECT_GE(IntervalResult::count(r.final, AttackType::kSynFlooding), 1u);
}

}  // namespace
}  // namespace hifind
