#include "router/distributed.hpp"

#include <gtest/gtest.h>

#include "../testing/synthetic.hpp"
#include "detect/sketch_wire.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::syn_packet;
using testing::synack_packet;

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

TEST(PacketSplitterTest, RoutesUniformly) {
  PacketSplitter splitter(3, 7);
  std::vector<int> counts(3, 0);
  PacketRecord p;
  for (int i = 0; i < 30000; ++i) ++counts[splitter.route(p)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(DistributedMonitorTest, RejectsZeroRouters) {
  EXPECT_THROW(DistributedMonitor(0, bank_cfg(), det_cfg()),
               std::invalid_argument);
}

TEST(DistributedMonitorTest, SplitTrafficLandsOnAllBanks) {
  DistributedMonitor mon(3, bank_cfg(), det_cfg());
  Pcg32 rng(2);
  for (int i = 0; i < 3000; ++i) {
    mon.feed(syn_packet(i, IPv4{rng.next()},
                        IPv4{0x81690000u | (rng.next() & 0xffff)}, 80));
  }
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GT(mon.bank(r).packets_recorded(), 800u) << "router " << r;
  }
}

// The heart of Sec. 5.3.2: detection over the COMBINED banks must match what
// a single monitor seeing the whole stream reports — even though each
// connection's SYN and SYN/ACK likely took different routers.
TEST(DistributedMonitorTest, AggregateMatchesSingleMonitor) {
  DistributedMonitor mon(3, bank_cfg(), det_cfg());
  SketchBank single(bank_cfg());
  HifindDetector single_det(det_cfg());
  Pcg32 rng(11);

  auto run_interval = [&](bool flood, std::uint64_t idx) {
    // Benign baseline: completed handshakes whose halves split randomly.
    for (int i = 0; i < 100; ++i) {
      const IPv4 client{0x64000000u + static_cast<std::uint32_t>(i)};
      const IPv4 server(129, 105, 1, 1);
      const auto sport = static_cast<std::uint16_t>(20000 + i);
      const auto s = syn_packet(i, client, server, 443, sport);
      const auto sa = synack_packet(i, server, 443, client, sport);
      mon.feed(s);
      mon.feed(sa);
      single.record(s);
      single.record(sa);
    }
    if (flood) {
      for (int i = 0; i < 400; ++i) {
        const auto p = syn_packet(1000 + i, IPv4{rng.next()},
                                  IPv4(129, 105, 1, 1), 443,
                                  static_cast<std::uint16_t>(1024 + i));
        mon.feed(p);
        single.record(p);
      }
    }
    const IntervalResult agg = mon.end_interval(idx);
    const IntervalResult ref = single_det.process(single, idx);
    single.clear();
    return std::make_pair(agg, ref);
  };

  run_interval(false, 0);
  const auto [agg, ref] = run_interval(true, 1);

  ASSERT_EQ(agg.final.size(), ref.final.size());
  for (std::size_t i = 0; i < agg.final.size(); ++i) {
    EXPECT_EQ(agg.final[i].type, ref.final[i].type);
    EXPECT_EQ(agg.final[i].key, ref.final[i].key);
    EXPECT_NEAR(agg.final[i].magnitude, ref.final[i].magnitude, 1e-6);
  }
  ASSERT_GE(agg.final.size(), 1u) << "the flood must actually be detected";
}

TEST(DistributedMonitorTest, ShippedBytesAreSketchSizedNotTraceSized) {
  DistributedMonitor mon(3, bank_cfg(), det_cfg());
  // Three routers ship three frames; each a fixed few MB: the bank's
  // counters as stored plus a small header.
  const std::size_t shipped = mon.bytes_shipped_per_interval();
  const std::size_t bank_bytes = SketchBank(bank_cfg()).memory_bytes();
  EXPECT_EQ(shipped, 3 * frame_bytes(bank_cfg()));
  EXPECT_GT(shipped, 3 * bank_bytes);
  EXPECT_LT(shipped, 3 * (bank_bytes + 4096));
  EXPECT_LT(shipped, 64u * 1024 * 1024);
}

// The per-interval figure is what actually crosses the network: on both
// backends, the sum of the frames the routers serialize.
TEST(DistributedMonitorTest, ShippedBytesAreTheRoutersFrameBytes) {
  for (const SketchBackendKind backend :
       {SketchBackendKind::kReversible, SketchBackendKind::kCompact}) {
    SketchBankConfig cfg = bank_cfg();
    cfg.backend = backend;
    DistributedMonitor mon(3, cfg, det_cfg());
    Pcg32 rng(12);
    auto to_routers = [&](const PacketRecord& p) { mon.feed(p); };
    feed_flood(to_routers, IPv4(129, 105, 9, 9), 80, 300, true, rng);
    std::size_t framed = 0;
    for (std::size_t r = 0; r < mon.num_routers(); ++r) {
      framed += serialize_frame(mon.bank(r), static_cast<std::uint32_t>(r), 0)
                    .size();
    }
    EXPECT_EQ(mon.bytes_shipped_per_interval(), framed)
        << sketch_backend_name(backend);
  }
}

TEST(DistributedMonitorTest, FeedAtTargetsSpecificRouter) {
  DistributedMonitor mon(2, bank_cfg(), det_cfg());
  mon.feed_at(1, syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 80));
  EXPECT_EQ(mon.bank(0).packets_recorded(), 0u);
  EXPECT_EQ(mon.bank(1).packets_recorded(), 1u);
  EXPECT_THROW(
      mon.feed_at(5, syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 80)),
      std::out_of_range);
}

}  // namespace
}  // namespace hifind
