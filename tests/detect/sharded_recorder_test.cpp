// Tentpole property: shared-nothing shard replicas reduced by COMBINE
// linearity must be BIT-IDENTICAL (==, not ULP-tolerant) to serial record()
// of the same stream — at every shard count, under attack-heavy randomized
// traffic, with the merge run inline or fanned out on a TaskPool. Runs under
// TSan in CI (the suite names are in the TSan filter) to check the per-shard
// rings, rebind, and merge handoff for races.
#include "detect/sharded_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "../testing/synthetic.hpp"
#include "common/task_pool.hpp"
#include "detect/hifind.hpp"
#include "detect/overlapped.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_hscan;
using testing::syn_packet;
using testing::synack_packet;

SketchBankConfig cfg() {
  SketchBankConfig c;
  c.seed = 42;
  c.rs48.bucket_bits = 12;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

/// Attack-heavy randomized traffic: the regime sharding exists for. Mostly
/// one-sided SYNs (spoofed floods at a handful of victims, horizontal and
/// vertical scan probes) with a background of completed flows, all orders
/// interleaved by the RNG.
std::vector<PacketRecord> attack_heavy_stream(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(n) * 2);
  const IPv4 victims[3] = {IPv4(129, 105, 1, 1), IPv4(129, 105, 2, 2),
                           IPv4(129, 105, 3, 3)};
  for (int i = 0; i < n; ++i) {
    const std::uint32_t roll = rng.bounded(10);
    if (roll < 3) {
      // Benign completed flow.
      const IPv4 server{0x81690000u | (rng.next() & 0xffu)};
      const IPv4 client{rng.next()};
      const auto sport = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
      out.push_back(syn_packet(i, client, server, 443, sport));
      out.push_back(synack_packet(i, server, 443, client, sport));
    } else if (roll < 7) {
      // Spoofed SYN flood: random sources, few victims, no responses.
      out.push_back(syn_packet(i, IPv4{rng.next()}, victims[rng.bounded(3)],
                               80,
                               static_cast<std::uint16_t>(rng.bounded(60000))));
    } else if (roll < 9) {
      // Horizontal scan: one source probing one port across many hosts.
      out.push_back(syn_packet(i, IPv4(7, 7, 7, 7),
                               IPv4{0x81690000u | (rng.next() & 0xffffu)},
                               445));
    } else {
      // Vertical scan: one source walking ports on one host.
      out.push_back(syn_packet(i, IPv4(8, 8, 8, 8), victims[0],
                               static_cast<std::uint16_t>(rng.bounded(1024))));
    }
  }
  return out;
}

void expect_bank_bit_identical(const SketchBank& a, const SketchBank& b) {
  EXPECT_EQ(a.packets_recorded(), b.packets_recorded());
  auto same = [](auto x, auto y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << "counter " << i;
    }
  };
  same(a.rs_sip_dport().counters(), b.rs_sip_dport().counters());
  same(a.rs_dip_dport().counters(), b.rs_dip_dport().counters());
  same(a.rs_sip_dip().counters(), b.rs_sip_dip().counters());
  same(a.verif_sip_dport().counters(), b.verif_sip_dport().counters());
  same(a.verif_dip_dport().counters(), b.verif_dip_dport().counters());
  same(a.verif_sip_dip().counters(), b.verif_sip_dip().counters());
  same(a.os_dip_dport().counters(), b.os_dip_dport().counters());
  same(a.twod_sipdip_dport().counters(), b.twod_sipdip_dport().counters());
  same(a.twod_sipdport_dip().counters(), b.twod_sipdport_dip().counters());
  same(a.synack_dip_dport().counters(), b.synack_dip_dport().counters());
}

/// N private replicas plus the pointer views the recorder and the merge
/// take.
struct ShardSet {
  explicit ShardSet(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      banks.push_back(std::make_unique<SketchBank>(cfg()));
      ptrs.push_back(banks.back().get());
    }
  }
  std::span<const SketchBank* const> view() const {
    return {ptrs.data(), ptrs.size()};
  }
  /// Fresh bank holding the shards' COMBINE-linear sum.
  SketchBank merged() const {
    SketchBank out(cfg());
    out.merge_shards(view());
    return out;
  }
  void reset() {
    for (SketchBank* s : ptrs) s->clear();
  }

  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> ptrs;
};

struct ShardedCase {
  unsigned shards;
  std::size_t ring_capacity;
};

class ShardedDeterminism : public ::testing::TestWithParam<ShardedCase> {};

/// Records `stream` serially and through a ShardedRecorder over
/// `num_shards` replicas, then checks the merged shards against the serial
/// bank bit for bit.
void expect_sharded_matches_serial(const std::vector<PacketRecord>& stream,
                                   unsigned num_shards,
                                   std::size_t ring_capacity,
                                   Pcg32& stream_rng) {
  SketchBank serial(cfg());
  for (const auto& p : stream) serial.record(p);

  ShardSet shards(num_shards);
  {
    ShardedRecorder rec(shards.ptrs, ring_capacity);
    // Mid-stream drains at random points exercise partial producer batches
    // (the round-robin deal-out includes short flushed tails).
    std::size_t next_drain = 1 + stream_rng.bounded(4096);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rec.offer(stream[i]);
      if (i == next_drain) {
        rec.drain();
        next_drain += 1 + stream_rng.bounded(4096);
      }
    }
    rec.drain();
  }
  expect_bank_bit_identical(shards.merged(), serial);
}

TEST_P(ShardedDeterminism, MergedShardsBitIdenticalToSerial) {
  const auto [num_shards, ring_capacity] = GetParam();
  Pcg32 stream_rng(0xacedULL * num_shards + ring_capacity);
  const auto stream =
      attack_heavy_stream(12000 + static_cast<int>(stream_rng.bounded(5000)),
                         stream_rng.next64());
  expect_sharded_matches_serial(stream, num_shards, ring_capacity, stream_rng);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndRings, ShardedDeterminism,
    ::testing::Values(ShardedCase{1, 8}, ShardedCase{1, 64},
                      ShardedCase{2, 8}, ShardedCase{4, 16},
                      ShardedCase{7, 8}, ShardedCase{8, 64},
                      ShardedCase{8, ShardedRecorder::kDefaultRingCapacity}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.shards) + "_ring" +
             std::to_string(info.param.ring_capacity);
    });

/// Benign-heavy mix: 40% completed flows, the rest one-sided SYNs spread
/// over a /16 — many distinct keys, so every shard ring sees traffic.
std::vector<PacketRecord> mixed_stream(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(n) * 2);
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.4)) {
      const IPv4 server{0x81690000u | (rng.next() & 0xffu)};
      const IPv4 client{rng.next()};
      const auto sport = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
      out.push_back(syn_packet(i, client, server, 443, sport));
      out.push_back(synack_packet(i, server, 443, client, sport));
    } else {
      out.push_back(syn_packet(i, IPv4{rng.next()},
                               IPv4{0x81690000u | (rng.next() & 0xffffu)},
                               static_cast<std::uint16_t>(rng.bounded(1024))));
    }
  }
  return out;
}

// The same bit-identity on benign-heavy traffic, with rings far smaller than
// a producer's publish batch so every flush wraps and hits backpressure.
// Each shard owns one worker thread, so the shard count is the thread count.
class PipelineDeterminism : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(PipelineDeterminism, BitIdenticalToSerialUnderAdversarialBatching) {
  const auto [num_shards, ring_capacity] = GetParam();
  Pcg32 stream_rng(0xfeedULL * num_shards + ring_capacity);
  const auto stream =
      mixed_stream(12000 + static_cast<int>(stream_rng.bounded(5000)),
                   stream_rng.next64());
  expect_sharded_matches_serial(stream, num_shards, ring_capacity, stream_rng);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndRings, PipelineDeterminism,
    ::testing::Values(ShardedCase{1, 8}, ShardedCase{2, 8},
                      ShardedCase{4, 16}, ShardedCase{7, 8},
                      ShardedCase{2, 64}, ShardedCase{4, 1024},
                      ShardedCase{7, ShardedRecorder::kDefaultRingCapacity}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.shards) + "_ring" +
             std::to_string(info.param.ring_capacity);
    });

TEST(ShardedDeterminismTest, PoolAndInlineMergeBitIdentical) {
  // The per-sketch task fan-out must not change the arithmetic: merging on
  // a pool and merging inline produce the same bank, bit for bit.
  const auto stream = attack_heavy_stream(8000, 17);
  ShardSet shards(4);
  {
    ShardedRecorder rec(shards.ptrs);
    for (const auto& p : stream) rec.offer(p);
    rec.drain();
  }
  SketchBank pooled(cfg());
  TaskPool pool(4);
  pooled.merge_shards(shards.view(), &pool);
  expect_bank_bit_identical(pooled, shards.merged());
}

TEST(ShardedDeterminismTest, PowerOfTwoWeightedOffersMatchWeightedSerial) {
  // Sampling weights ride the ops into the shards. Weights are integers
  // (the load shedder's 2^k; fractional ones are rejected) and the interval
  // counters int32 sums modulo 2^32, so the merge is bit-identical to
  // weighted serial record() in any merge order.
  const auto stream = attack_heavy_stream(6000, 21);
  Pcg32 rng(33);
  std::vector<double> weights(stream.size());
  for (auto& w : weights) {
    w = std::ldexp(1.0, static_cast<int>(rng.bounded(9)));  // 2^0..2^8
  }
  SketchBank serial(cfg());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    serial.record(stream[i], weights[i]);
  }
  ShardSet shards(4);
  {
    ShardedRecorder rec(shards.ptrs, /*ring_capacity=*/32);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rec.offer(stream[i], weights[i]);
    }
    rec.drain();
  }
  expect_bank_bit_identical(shards.merged(), serial);
}

// Recording counters are int32: the recorder's and the overlapped
// pipeline's weight entry points reject a fractional weight before any op
// is enqueued.
TEST(IntervalCountersTest, FractionalWeightRejectedByPipelines) {
  const auto stream = attack_heavy_stream(10, 5);
  ShardSet shards(2);
  {
    ShardedRecorder rec(shards.ptrs, /*ring_capacity=*/32);
    EXPECT_THROW(rec.offer(stream[0], 0.5), std::invalid_argument);
    rec.offer(stream[0], 2.0);
    rec.drain();
  }
  EXPECT_EQ(shards.merged().packets_recorded(), 1u);

  OverlappedPipelineConfig oc;
  oc.bank = cfg();
  oc.record_threads = 1;
  oc.detector.epoch_threads = 1;
  OverlappedPipeline pipe(oc);
  EXPECT_THROW(pipe.offer(stream[0], 1.5), std::invalid_argument);
  pipe.offer(stream[0], 3.0);
}

TEST(ShardedDeterminismTest, HistoryAccumulatesAcrossMergedIntervals) {
  // Multi-interval equivalence: shards are per-interval accumulators (reset
  // after each merge), and so is the serial bank; the cumulative SYN/ACK
  // service history accumulates in the detector. A detector fed the merged
  // shards holds bit for bit the history of one fed the serial bank: the
  // sum of the intervals' SYNACK grids.
  const auto interval1 = attack_heavy_stream(6000, 23);
  const auto interval2 = attack_heavy_stream(6000, 29);
  HifindDetectorConfig dc;
  dc.epoch_threads = 1;
  HifindDetector from_serial(dc), from_shards(dc);
  SketchBank serial(cfg());
  ShardSet shards(4);
  SketchBank merged(cfg());
  ShardedRecorder rec(shards.ptrs);
  CounterGrid expected(serial.synack_dip_dport().grid().rows(),
                       serial.synack_dip_dport().grid().cols(), 0);
  std::uint64_t interval = 0;
  for (const auto* stream : {&interval1, &interval2}) {
    for (const auto& p : *stream) {
      serial.record(p);
      rec.offer(p);
    }
    rec.drain();
    merged.merge_shards(shards.view());
    shards.reset();
    expect_bank_bit_identical(merged, serial);
    expected.add_widened(serial.synack_dip_dport().grid());
    from_serial.process(serial, interval);
    from_shards.process(merged, interval++);
    serial.clear();
  }
  ASSERT_NE(from_shards.service_history(), nullptr);
  const auto got = from_shards.service_history()->counters();
  const auto ref = from_serial.service_history()->counters();
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin()));
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.counters().begin()));
  EXPECT_GT(from_shards.service_history()->stage_sum(0), 0.0);
}

TEST(ShardedRecorderTest, RebindSealsGenerationsExactly) {
  // Packets offered before rebind() land in the old shard generation,
  // packets after in the new one: each generation's merge matches a serial
  // bank fed only that side of the seal.
  const SketchBankConfig c = cfg();
  SketchBank serial_a(c), serial_b(c);
  feed_completed(serial_a, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 300);
  feed_hscan(serial_b, IPv4(7, 7, 7, 7), 445, 300);

  ShardSet gen_a(3), gen_b(3);
  ShardedRecorder rec(gen_a.ptrs, /*ring_capacity=*/16);
  feed_completed(rec, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 300);
  rec.rebind(gen_b.ptrs);
  feed_hscan(rec, IPv4(7, 7, 7, 7), 445, 300);
  rec.drain();
  expect_bank_bit_identical(gen_a.merged(), serial_a);
  expect_bank_bit_identical(gen_b.merged(), serial_b);
}

TEST(ShardedRecorderTest, DrainIsReusableAcrossReboundGenerations) {
  // The pipeline's seal cycle: drain, merge, reset, rebind to the other
  // generation, and back again. Every drain must be a full barrier for its
  // own interval, whichever generation the recorder currently fills.
  const auto stream = attack_heavy_stream(3000, 9);
  SketchBank serial(cfg());
  for (const auto& p : stream) serial.record(p);

  ShardSet gen_a(3), gen_b(3);
  ShardedRecorder rec(gen_a.ptrs);
  ShardSet* gens[] = {&gen_a, &gen_b, &gen_a};
  for (std::size_t i = 0; i < 3; ++i) {
    if (i > 0) rec.rebind(gens[i]->ptrs);
    for (const auto& p : stream) rec.offer(p);
    rec.drain();
    expect_bank_bit_identical(gens[i]->merged(), serial);
    gens[i]->reset();
  }
}

TEST(ShardedRecorderTest, DrainOnEmptyIsImmediate) {
  ShardSet shards(2);
  ShardedRecorder rec(shards.ptrs);
  rec.drain();
  rec.drain();
  EXPECT_EQ(rec.drain_spin_yields(), 0u);
  for (const SketchBank* s : shards.ptrs) EXPECT_EQ(s->packets_recorded(), 0u);
}

TEST(ShardedRecorderTest, DrainYieldsInsteadOfSpinningOnLongBacklogs) {
  // One shard, a deep ring, and a burst far larger than the spin budget:
  // drain() must fall back from pause-spinning to yielding/sleeping while
  // the worker chews through the backlog, and account for it.
  ShardSet shards(1);
  ShardedRecorder rec(shards.ptrs, 4096);
  EXPECT_EQ(rec.drain_spin_yields(), 0u);
  for (const auto& p : attack_heavy_stream(30000, 13)) rec.offer(p);
  rec.drain();
  const auto yields = rec.drain_spin_yields();
  EXPECT_GT(yields, 0u)
      << "a multi-ms backlog drained inside the pure-spin budget?";
  // Counter is cumulative and an empty drain adds nothing.
  rec.drain();
  EXPECT_EQ(rec.drain_spin_yields(), yields);
  EXPECT_GT(shards.ptrs[0]->packets_recorded(), 0u);
}

TEST(ShardedRecorderTest, TakeShardOpsAccountsEveryOpOnce) {
  const auto stream = attack_heavy_stream(5000, 31);
  ShardSet shards(4);
  ShardedRecorder rec(shards.ptrs);
  for (const auto& p : stream) rec.offer(p);
  rec.drain();
  const auto ops = rec.take_shard_ops();
  ASSERT_EQ(ops.size(), 4u);
  std::uint64_t total = 0, per_shard_sum = 0;
  for (std::uint64_t o : ops) total += o;
  for (const SketchBank* s : shards.ptrs) {
    per_shard_sum += s->packets_recorded();
  }
  // Each op is dealt to exactly one shard; every stream packet is a SYN or
  // SYN-ACK so none are skipped at extraction.
  EXPECT_EQ(total, stream.size());
  EXPECT_EQ(per_shard_sum, stream.size());
  // The counter is a delta: a second take with no new traffic reads zero.
  for (std::uint64_t o : rec.take_shard_ops()) EXPECT_EQ(o, 0u);
}

TEST(ShardedRecorderTest, RejectsInvalidShardSets) {
  SketchBank a(cfg()), b(cfg());
  std::vector<SketchBank*> none;
  EXPECT_THROW(ShardedRecorder{none}, std::invalid_argument);
  std::vector<SketchBank*> two{&a, &b};
  ShardedRecorder rec(two);
  std::vector<SketchBank*> one{&a};
  EXPECT_THROW(rec.rebind(one), std::invalid_argument);
}

TEST(ShardMergeTest, RejectsAliasedAndMismatchedInputs) {
  SketchBank merged(cfg()), shard(cfg());
  // The destination may be term 0 (the in-place reduction) ...
  {
    std::vector<const SketchBank*> terms{&merged, &shard};
    merged.merge_shards(
        std::span<const SketchBank* const>(terms.data(), terms.size()));
    EXPECT_EQ(merged.packets_recorded(), 0u);
  }
  // ... but aliasing a later term would read overwritten state.
  {
    std::vector<const SketchBank*> terms{&shard, &merged};
    EXPECT_THROW(merged.merge_shards(std::span<const SketchBank* const>(
                     terms.data(), terms.size())),
                 std::invalid_argument);
  }
  {
    std::vector<const SketchBank*> terms{&merged, &shard, &merged};
    EXPECT_THROW(merged.merge_shards(std::span<const SketchBank* const>(
                     terms.data(), terms.size())),
                 std::invalid_argument);
  }
  // Config mismatch (different seed => different hash rows) is not linear.
  SketchBankConfig other = cfg();
  other.seed = 43;
  SketchBank mismatched(other);
  {
    std::vector<const SketchBank*> terms{&mismatched};
    EXPECT_THROW(merged.merge_shards(std::span<const SketchBank* const>(
                     terms.data(), terms.size())),
                 std::invalid_argument);
  }
  // Empty shard set has no defined sum.
  EXPECT_THROW(
      merged.merge_shards(std::span<const SketchBank* const>()),
      std::invalid_argument);
  // A valid single-shard merge still works after the failed attempts.
  std::vector<const SketchBank*> ok{&shard};
  merged.merge_shards(
      std::span<const SketchBank* const>(ok.data(), ok.size()));
  EXPECT_EQ(merged.packets_recorded(), 0u);
}

TEST(ShardMergeTest, InPlaceReductionMatchesDistinctMerge) {
  // The overlapped pipeline's epoch: reduce the sealed shards into shard 0
  // and clear them all after detection. Over several intervals, shard 0
  // must then be bit-identical to a distinct bank merged from the same
  // shards — the SYNACK grid included, an interval grid like the others.
  const std::uint64_t seeds[] = {41, 43, 47};
  for (const unsigned n : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    ShardSet shards(n);
    ShardedRecorder rec(shards.ptrs, /*ring_capacity=*/64);
    SketchBank merged(cfg());
    TaskPool pool(2);
    for (const std::uint64_t seed : seeds) {
      Pcg32 rng(seed);
      for (const auto& p : attack_heavy_stream(4000, seed)) {
        rec.offer(p, std::ldexp(1.0, static_cast<int>(rng.bounded(4))));
      }
      rec.drain();
      merged.merge_shards(shards.view());
      SketchBank& sealed = *shards.ptrs[0];
      sealed.merge_shards(shards.view(), &pool);
      expect_bank_bit_identical(sealed, merged);
      EXPECT_EQ(sealed.abs_delta_sum(), merged.abs_delta_sum());
      EXPECT_EQ(sealed.counters_in_range(), merged.counters_in_range());
      EXPECT_GT(sealed.synack_dip_dport().stage_sum(0), 0.0);
      shards.reset();
    }
  }
}

}  // namespace
}  // namespace hifind
