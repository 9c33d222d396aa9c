#include "detect/sketch_bank.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../testing/synthetic.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::syn_packet;
using testing::synack_packet;

SketchBankConfig small_bank(std::uint64_t seed = 42) {
  SketchBankConfig c;
  c.seed = seed;
  // Shrink shapes for test speed; ratios match the paper layout.
  c.rs48.bucket_bits = 12;
  c.rs64.bucket_bits = 16;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

TEST(SketchBankTest, CompletedHandshakeNetsToZero) {
  SketchBank bank(small_bank());
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 50);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 0.0, 1.0);
  EXPECT_NEAR(bank.verif_dip_dport().estimate(key), 0.0, 1.0);
}

TEST(SketchBankTest, UnansweredSynsAccumulate) {
  SketchBank bank(small_bank());
  Pcg32 rng(1);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 300, /*spoofed=*/true, rng);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 300.0, 20.0);
}

TEST(SketchBankTest, OsRecordsSynOnly) {
  SketchBank bank(small_bank());
  // 100 completed handshakes: RS nets 0 but OS counts 100 SYNs.
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 100);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_NEAR(bank.os_dip_dport().estimate(key), 100.0, 5.0);
}

TEST(SketchBankTest, SynackHistorySurvivesClear) {
  SketchBank bank(small_bank());
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 40);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_GE(bank.synack_history().estimate(key), 30.0);
  bank.clear();
  EXPECT_GE(bank.synack_history().estimate(key), 30.0)
      << "lifetime history must survive interval clears";
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 0.0, 1e-9);
  bank.reset_all();
  EXPECT_NEAR(bank.synack_history().estimate(key), 0.0, 1.0);
}

TEST(SketchBankTest, NonSynPacketsAreIgnored) {
  SketchBank bank(small_bank());
  PacketRecord ack = syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 80);
  ack.flags = kAck;
  bank.record(ack);
  PacketRecord udp = syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 53);
  udp.proto = Protocol::kUdp;
  bank.record(udp);
  EXPECT_EQ(bank.packets_recorded(), 0u);
}

TEST(SketchBankTest, TwoDSketchesSeeCorrectDimensions) {
  SketchBank bank(small_bank());
  const IPv4 attacker(6, 6, 6, 6);
  const IPv4 target(129, 105, 3, 3);
  // Vertical scan: 200 ports on one target.
  for (int port = 1; port <= 200; ++port) {
    bank.record(syn_packet(port, attacker, target,
                           static_cast<std::uint16_t>(port)));
  }
  const std::uint64_t sipdip = pack_ip_ip(attacker, target);
  EXPECT_EQ(bank.twod_sipdip_dport().classify(sipdip),
            ColumnShape::kSpread);

  // Non-spoofed flood from another source: one port, one target.
  const IPv4 flooder(7, 7, 7, 7);
  for (int i = 0; i < 200; ++i) {
    bank.record(syn_packet(1000 + i, flooder, target, 80));
  }
  EXPECT_EQ(bank.twod_sipdip_dport().classify(pack_ip_ip(flooder, target)),
            ColumnShape::kConcentrated);
}

TEST(SketchBankTest, CombineEqualsSingleBank) {
  const SketchBankConfig cfg = small_bank(9);
  SketchBank a(cfg), b(cfg), whole(cfg);
  Pcg32 rng(2);
  for (int i = 0; i < 2000; ++i) {
    PacketRecord p = syn_packet(
        i, IPv4{rng.next()}, IPv4{0x81690000u | (rng.next() & 0xffff)},
        static_cast<std::uint16_t>(rng.bounded(1024)));
    if (rng.chance(0.4)) p.flags = kSyn | kAck;
    (rng.chance(0.5) ? a : b).record(p);
    whole.record(p);
  }
  std::vector<std::pair<double, const SketchBank*>> terms{{1.0, &a},
                                                          {1.0, &b}};
  const SketchBank combined = SketchBank::combine(terms);
  const auto cw = whole.rs_dip_dport().counters();
  const auto cc = combined.rs_dip_dport().counters();
  for (std::size_t i = 0; i < cw.size(); ++i) {
    ASSERT_DOUBLE_EQ(cw[i], cc[i]);
  }
  EXPECT_EQ(combined.packets_recorded(), whole.packets_recorded());
}

TEST(SketchBankTest, CombineRejectsDifferentSeeds) {
  SketchBank a(small_bank(1)), b(small_bank(2));
  EXPECT_THROW(a.accumulate(b), std::invalid_argument);
}

TEST(SketchBankTest, WeightedRecordScalesEveryMetric) {
  // Sampled deployment: 1/4 of packets recorded at weight 4 must estimate
  // the same totals (in expectation; here deterministically, by recording
  // every 4th packet of a uniform stream).
  SketchBank full(small_bank(3)), sampled(small_bank(3));
  const IPv4 victim(129, 105, 9, 9);
  Pcg32 rng(5);
  int i = 0;
  for (int n = 0; n < 400; ++n, ++i) {
    const auto p = syn_packet(n, IPv4{rng.next()}, victim, 80,
                              static_cast<std::uint16_t>(1024 + n));
    full.record(p);
    if (i % 4 == 0) sampled.record(p, 4.0);
  }
  const std::uint64_t key = pack_ip_port(victim, 80);
  EXPECT_NEAR(sampled.rs_dip_dport().estimate(key),
              full.rs_dip_dport().estimate(key), 30.0);
  EXPECT_NEAR(sampled.os_dip_dport().estimate(key),
              full.os_dip_dport().estimate(key), 30.0);
}

TEST(RecordMaskedTest, GroupsPartitionTheBank) {
  // Applying each sketch group's slice of every op exactly once must equal
  // one full record() per packet: the masks partition the bank.
  SketchBank full(small_bank());
  std::vector<RecordOp> ops;
  auto record_and_extract = [&](const PacketRecord& p) {
    full.record(p);
    RecordOp op;
    if (make_record_op(p, 1.0, op)) ops.push_back(op);
  };
  Pcg32 rng(11);
  feed_completed(record_and_extract, IPv4(100, 1, 1, 1),
                 IPv4(129, 105, 1, 1), 443, 300);
  feed_flood(record_and_extract, IPv4(129, 105, 9, 9), 80, 700,
             /*spoofed=*/true, rng);
  SketchBank by_groups(small_bank());
  for (unsigned g = 0; g < SketchBank::kNumSketchGroups; ++g) {
    for (const RecordOp& op : ops) by_groups.record_op(op, 1u << g);
  }
  EXPECT_EQ(by_groups.packets_recorded(), full.packets_recorded());
  auto same = [](std::span<const double> a, std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  };
  same(full.rs_dip_dport().counters(), by_groups.rs_dip_dport().counters());
  same(full.verif_sip_dip().counters(), by_groups.verif_sip_dip().counters());
  same(full.os_dip_dport().counters(), by_groups.os_dip_dport().counters());
  same(full.synack_history().counters(),
       by_groups.synack_history().counters());
  same(full.twod_sipdport_dip().cells(), by_groups.twod_sipdport_dip().cells());
}

TEST(SketchBankTest, PaperShapeMemoryIsAbout13MB) {
  // Full paper configuration: 13.2MB with 32-bit counters (Sec. 5.5.1).
  SketchBankConfig paper;
  SketchBank bank(paper);
  const double mb = static_cast<double>(bank.memory_bytes_hw()) / 1e6;
  EXPECT_GT(mb, 8.0);
  EXPECT_LT(mb, 18.0);
}

TEST(SketchBankTest, AccessesPerPacketIsSmallAndFixed) {
  SketchBank bank(small_bank());
  // 3 RS x 6 + 3 verif x 6 + OS x 6 + 2 x 2D x 5 = 52. (A SYN updates the
  // OS, a SYN/ACK the history sketch — also 6 stages — so the per-packet
  // total is 52 either way.)
  EXPECT_EQ(bank.accesses_per_packet(), 52u);
}

}  // namespace
}  // namespace hifind
