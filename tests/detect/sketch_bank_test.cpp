#include "detect/sketch_bank.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "../testing/synthetic.hpp"
#include "detect/hifind.hpp"
#include "detect/sketch_wire.hpp"

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

TEST(SketchBankTest, SynackSketchClearsWithTheInterval) {
  // The bank records one interval's #SYN/ACK; the lifetime history is the
  // detector's (HifindDetector folds this sketch in), so clear() wipes it
  // like every other sketch.
  SketchBank bank(small_bank());
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 40);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_NEAR(bank.synack_dip_dport().estimate(key), 40.0, 1e-9);
  EXPECT_NEAR(bank.os_dip_dport().estimate(key), 40.0, 1e-9);
  bank.clear();
  EXPECT_EQ(bank.synack_dip_dport().estimate(key), 0.0);
  for (const std::int32_t c : bank.synack_dip_dport().grid().counters()) {
    ASSERT_EQ(c, 0);
  }
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 0.0, 1e-9);
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

/// Records a mixed SYN / SYN-ACK stream of `n` packets, handing packet i to
/// sink(i, p).
template <class Sink>
void record_mixed_stream(int n, Sink sink) {
  Pcg32 rng(2);
  for (int i = 0; i < n; ++i) {
    PacketRecord p = syn_packet(
        i, IPv4{rng.next()}, IPv4{0x81690000u | (rng.next() & 0xffff)},
        static_cast<std::uint16_t>(rng.bounded(1024)));
    if (rng.chance(0.4)) p.flags = kSyn | kAck;
    sink(i, p);
  }
}

/// Every grid of both banks, bit for bit, and their packet counts.
void expect_same_bank(const SketchBank& a, const SketchBank& b) {
  EXPECT_EQ(serialize_frame(a, 0, 0), serialize_frame(b, 0, 0));
  EXPECT_EQ(a.packets_recorded(), b.packets_recorded());
  EXPECT_EQ(a.abs_delta_sum(), b.abs_delta_sum());
}

TEST(SketchBankTest, CombineEqualsSingleBank) {
  // COMBINE over routers: the sum of two banks, each holding part of the
  // stream, is the bank that recorded all of it.
  const SketchBankConfig cfg = small_bank(9);
  SketchBank a(cfg), b(cfg), whole(cfg), combined(cfg);
  Pcg32 split(7);
  record_mixed_stream(2000, [&](int, const PacketRecord& p) {
    (split.chance(0.5) ? a : b).record(p);
    whole.record(p);
  });
  const std::vector<const SketchBank*> terms{&a, &b};
  combined.merge_shards(terms);
  expect_same_bank(combined, whole);
}

TEST(SketchBankTest, MergeShardsTakesAnyNumberOfTerms) {
  // Routers are not capped: a sum over more terms than one recorder runs
  // (SketchBank::kMaxShards) is still the bank that recorded every term's
  // stream, in a distinct destination and in place into term 0.
  constexpr std::size_t kTerms = SketchBank::kMaxShards + 1;
  SketchBankConfig cfg = small_bank(9);
  cfg.rs64.bucket_bits = 8;  // 33 banks: keep each one small
  cfg.verification.num_buckets = 1u << 10;
  cfg.original.num_buckets = 1u << 10;
  cfg.twod.x_buckets = 1u << 6;
  std::vector<SketchBank> parts(kTerms, SketchBank(cfg));
  SketchBank whole(cfg), combined(cfg);
  record_mixed_stream(3000, [&](int i, const PacketRecord& p) {
    parts[static_cast<std::size_t>(i) % kTerms].record(p);
    whole.record(p);
  });
  std::vector<const SketchBank*> terms;
  for (const SketchBank& part : parts) terms.push_back(&part);
  combined.merge_shards(terms);
  expect_same_bank(combined, whole);
  parts.front().merge_shards(terms);
  expect_same_bank(parts.front(), whole);
}

TEST(SketchBankTest, CombineRejectsDifferentSeeds) {
  SketchBank a(small_bank(1)), b(small_bank(2)), dst(small_bank(1));
  const std::vector<const SketchBank*> terms{&a, &b};
  EXPECT_THROW(dst.merge_shards(terms), std::invalid_argument);
  const std::vector<const SketchBank*> other_only{&b};
  EXPECT_THROW(dst.merge_shards(other_only), std::invalid_argument);
}

TEST(SketchBankTest, RejectsInvalidShapeOfUnusedBackend) {
  // The unused backend's shapes are kept so a config can flip backends; a
  // bank must not carry one the flip would reject.
  SketchBankConfig bad_ci = small_bank();
  bad_ci.backend = SketchBackendKind::kReversible;
  bad_ci.ci48.key_bits = 255;
  EXPECT_THROW(SketchBank{bad_ci}, std::invalid_argument);
  bad_ci.ci48 = small_bank().ci48;
  bad_ci.ci64.bucket_bits = 31;
  EXPECT_THROW(SketchBank{bad_ci}, std::invalid_argument);

  SketchBankConfig bad_rs = small_bank();
  bad_rs.backend = SketchBackendKind::kCompact;
  bad_rs.rs48.key_bits = 44;  // not a multiple of 8
  EXPECT_THROW(SketchBank{bad_rs}, std::invalid_argument);
  bad_rs.rs48 = small_bank().rs48;
  bad_rs.rs64.num_stages = 0;
  EXPECT_THROW(SketchBank{bad_rs}, std::invalid_argument);

  // Valid shapes on both sides build under either backend.
  for (const SketchBackendKind kind :
       {SketchBackendKind::kReversible, SketchBackendKind::kCompact}) {
    SketchBankConfig ok = small_bank();
    ok.backend = kind;
    EXPECT_NO_THROW(SketchBank{ok}) << sketch_backend_name(kind);
  }
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
  auto same = [](const auto& x, const auto& y) {
    const auto a = x.grid().counters();
    const auto b = y.grid().counters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  };
  same(full.rs_dip_dport(), by_groups.rs_dip_dport());
  same(full.verif_sip_dip(), by_groups.verif_sip_dip());
  same(full.os_dip_dport(), by_groups.os_dip_dport());
  same(full.synack_dip_dport(), by_groups.synack_dip_dport());
  same(full.twod_sipdport_dip(), by_groups.twod_sipdport_dip());
}

TEST(SketchBankTest, RecordOpsMatchesRecordOpPerOp) {
  // record_ops feeds each sketch the whole span in 256-op chunks, and the
  // OS/SYNACK feed flushes its direction-filtered buffer every 256 kept
  // ops; the span lengths straddle both boundaries (1000 mixed ops crosses
  // the flush in each direction). The whole bank, serialized, must be
  // bit-identical to record_op applied per op.
  Pcg32 rng(29);
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 1000u}) {
    std::vector<RecordOp> ops;
    while (ops.size() < n) {
      const IPv4 client(rng.next());
      const IPv4 server(rng.next());
      const auto port = static_cast<std::uint16_t>(rng.bounded(1024));
      const PacketRecord p = rng.chance(0.5)
                                 ? syn_packet(0, client, server, port)
                                 : synack_packet(0, server, port, client);
      RecordOp op;
      ASSERT_TRUE(make_record_op(p, rng.chance(0.5) ? 1.0 : 4.0, op));
      ops.push_back(op);
    }
    SketchBank batched(small_bank()), per_op(small_bank());
    batched.record_ops(ops, SketchBank::kGroupAll);
    for (const RecordOp& op : ops) per_op.record_op(op, SketchBank::kGroupAll);
    EXPECT_EQ(serialize_frame(batched, 0, 0), serialize_frame(per_op, 0, 0))
        << "n=" << n;
  }
}

TEST(SketchBankTest, PaperShapeMemoryIsAbout13MB) {
  // Full paper configuration: 13.2MB with 32-bit counters (Sec. 5.5.1);
  // the bank measures 4-byte counters, its SYNACK sketch included.
  SketchBankConfig paper;
  SketchBank bank(paper);
  const double mb = static_cast<double>(bank.memory_bytes()) / 1e6;
  EXPECT_GT(mb, 8.0);
  EXPECT_LT(mb, 18.0);
}

TEST(SketchBankTest, AccessesPerPacketIsSmallAndFixed) {
  SketchBank bank(small_bank());
  // 3 RS x 6 + 3 verif x 6 + OS x 6 + 2 x 2D x 5 = 52. (A SYN updates the
  // OS, a SYN/ACK the SYNACK sketch — also 6 stages — so the per-packet
  // total is 52 either way.)
  EXPECT_EQ(bank.accesses_per_packet(), 52u);
}

// A shard's int32 counter may pass INT32_MAX (it wraps modulo 2^32); once
// the merged total is back in range it reads exactly, and the merged bank
// equals serial recording bit for bit.
TEST(IntervalCountersTest, ShardCounterPastInt32MaxMergesExactly) {
  const IPv4 server(129, 105, 9, 9);
  const std::uint64_t key = pack_ip_port(server, 80);
  const double w = 1073741824.0;  // 2^30
  const PacketRecord syn = syn_packet(0, IPv4(6, 6, 6, 6), server, 80);
  const PacketRecord synack = synack_packet(0, server, 80, IPv4(6, 6, 6, 6));

  SketchBank shard_a(small_bank()), shard_b(small_bank()),
      serial(small_bank());
  for (int i = 0; i < 3; ++i) {
    shard_a.record(syn, w);  // 3 * 2^30 > INT32_MAX: wraps negative
    serial.record(syn, w);
  }
  for (int i = 0; i < 2; ++i) {
    shard_b.record(synack, w);
    serial.record(synack, w);
  }
  EXPECT_LT(shard_a.verif_dip_dport().estimate(key), 0.0)
      << "the shard counter must really have wrapped";
  EXPECT_FALSE(shard_a.counters_in_range());

  SketchBank merged(small_bank());
  const std::array<const SketchBank*, 2> shards{&shard_a, &shard_b};
  merged.merge_shards(shards);
  EXPECT_DOUBLE_EQ(merged.verif_dip_dport().estimate(key), w);
  EXPECT_DOUBLE_EQ(merged.rs_dip_dport().estimate(key), w);
  EXPECT_EQ(serialize_frame(merged, 0, 0), serialize_frame(serial, 0, 0));
  // The |delta| bound is conservative: 5 * 2^30 > INT32_MAX.
  EXPECT_EQ(merged.abs_delta_sum(), 5 * std::int64_t{1 << 30});
}

// The interval's sum of |delta| decides the range verdict: exactly
// INT32_MAX is in range, one more unit is not — on the bank, after a shard
// merge and on the IntervalResult the detector returns.
TEST(IntervalCountersTest, RangeVerdictPinsBothSidesOfTheBound) {
  const PacketRecord syn =
      syn_packet(0, IPv4(6, 6, 6, 6), IPv4(129, 105, 9, 9), 80);
  const PacketRecord synack =
      synack_packet(0, IPv4(129, 105, 9, 9), 80, IPv4(6, 6, 6, 6));
  SketchBank bank(small_bank());
  bank.record(syn, 1073741824.0);         // 2^30
  bank.record(synack, 1073741823.0);      // 2^30 - 1: sum = INT32_MAX
  EXPECT_EQ(bank.abs_delta_sum(), 2147483647);
  EXPECT_TRUE(bank.counters_in_range());
  HifindDetector detector(HifindDetectorConfig{.epoch_threads = 1});
  EXPECT_TRUE(detector.process(bank, 0).counters_in_range);

  SketchBank over(small_bank());
  const std::array<const SketchBank*, 2> shards{&bank, &over};
  over.record(syn, 1.0);
  SketchBank merged(small_bank());
  merged.merge_shards(shards);
  EXPECT_EQ(merged.abs_delta_sum(), 2147483648);
  EXPECT_FALSE(merged.counters_in_range());
  EXPECT_FALSE(detector.process(merged, 1).counters_in_range);

  bank.record(syn, 1.0);
  EXPECT_FALSE(bank.counters_in_range());
  bank.clear();
  EXPECT_EQ(bank.abs_delta_sum(), 0);
  EXPECT_TRUE(bank.counters_in_range());
}

// A frame carries no |delta| sum; the reader bounds it from the counters,
// soundly (every counter within it) and never above the recorded sum.
TEST(IntervalCountersTest, DeserializedBankBoundsItsCounters) {
  SketchBank bank(small_bank());
  Pcg32 rng(3);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 700, /*spoofed=*/true, rng);
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 50);
  const SketchBank back = deserialize_frame(serialize_frame(bank, 0, 0)).bank;
  EXPECT_LE(back.abs_delta_sum(), bank.abs_delta_sum());
  EXPECT_GE(back.abs_delta_sum(), 700);
  EXPECT_TRUE(back.counters_in_range());
}

TEST(IntervalCountersTest, FractionalWeightRejected) {
  SketchBank bank(small_bank());
  const PacketRecord syn =
      syn_packet(0, IPv4(6, 6, 6, 6), IPv4(129, 105, 9, 9), 80);
  for (const double w : {0.5, 2.25, -1.5, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(bank.record(syn, w), std::invalid_argument) << w;
  }
  EXPECT_EQ(bank.packets_recorded(), 0u);
  bank.record(syn, 4.0);
  EXPECT_EQ(bank.packets_recorded(), 1u);
}

}  // namespace
}  // namespace hifind
