#include "packet/netflow_v5.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"

namespace hifind {
namespace {

class NetflowV5Test : public ::testing::Test {
 protected:
  std::string path() {
    auto p = (std::filesystem::temp_directory_path() /
              ("hifind_nf5_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++) + ".nf5"))
                 .string();
    created_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  int counter_{0};
  std::vector<std::string> created_;
};

Trace handshake_trace() {
  Trace t;
  PacketRecord syn;
  syn.ts = 5000;  // netflow keeps millisecond granularity
  syn.sip = IPv4(100, 1, 2, 3);
  syn.dip = IPv4(129, 105, 1, 1);
  syn.sport = 40000;
  syn.dport = 443;
  syn.flags = kSyn;
  t.push_back(syn);

  PacketRecord synack;
  synack.ts = 9000;
  synack.sip = IPv4(129, 105, 1, 1);
  synack.dip = IPv4(100, 1, 2, 3);
  synack.sport = 443;
  synack.dport = 40000;
  synack.flags = kSyn | kAck;
  synack.outbound = true;
  t.push_back(synack);

  PacketRecord fin = syn;
  fin.ts = 2000000;
  fin.flags = kFin | kAck;
  t.push_back(fin);
  return t;
}

TEST_F(NetflowV5Test, RoundTripPreservesHandshakeSemantics) {
  const std::string file = path();
  write_netflow_v5(handshake_trace(), file);
  NetflowV5ReadStats stats;
  const Trace back = read_netflow_v5(file, &stats);

  EXPECT_EQ(stats.datagrams, 1u);
  EXPECT_EQ(stats.records, 3u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back[0].is_syn());
  EXPECT_EQ(back[0].sip, IPv4(100, 1, 2, 3));
  EXPECT_EQ(back[0].dport, 443);
  EXPECT_TRUE(back[1].is_synack());
  EXPECT_EQ(back[1].sport, 443);
  EXPECT_TRUE(back[2].is_fin());
  // Millisecond granularity, rebased to the first event.
  EXPECT_EQ(back[1].ts - back[0].ts, 4000u);
  EXPECT_EQ(syn_delta(back[0]), 1);
  EXPECT_EQ(syn_delta(back[1]), -1);
}

TEST_F(NetflowV5Test, ManyRecordsSplitAcrossDatagrams) {
  Trace t;
  Pcg32 rng(3);
  for (int i = 0; i < 100; ++i) {
    PacketRecord p;
    p.ts = static_cast<Timestamp>(i) * 1000;
    p.sip = IPv4{rng.next()};
    p.dip = IPv4(129, 105, 1, 1);
    p.sport = 40000;
    p.dport = 80;
    p.flags = kSyn;
    t.push_back(p);
  }
  const std::string file = path();
  write_netflow_v5(t, file);
  NetflowV5ReadStats stats;
  const Trace back = read_netflow_v5(file, &stats);
  EXPECT_EQ(stats.datagrams, 4u) << "30-record packing => ceil(100/30)";
  EXPECT_EQ(back.size(), 100u);
  for (std::size_t i = 1; i < back.size(); ++i) {
    EXPECT_LE(back[i - 1].ts, back[i].ts);
  }
}

TEST_F(NetflowV5Test, UdpRecordsPassThrough) {
  Trace t;
  PacketRecord udp;
  udp.ts = 0;
  udp.sip = IPv4(10, 0, 0, 1);
  udp.dip = IPv4(129, 105, 2, 2);
  udp.dport = 53;
  udp.proto = Protocol::kUdp;
  t.push_back(udp);
  const std::string file = path();
  write_netflow_v5(t, file);
  NetflowV5ReadStats stats;
  const Trace back = read_netflow_v5(file, &stats);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].proto, Protocol::kUdp);
  EXPECT_EQ(stats.non_tcp, 1u);
}

TEST_F(NetflowV5Test, RejectsBadVersionAndTruncation) {
  const std::string file = path();
  write_netflow_v5(handshake_trace(), file);
  {
    // Corrupt the version field.
    std::fstream f(file,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(1);
    f.put(9);
  }
  EXPECT_THROW(read_netflow_v5(file, nullptr), std::runtime_error);

  const std::string file2 = path();
  write_netflow_v5(handshake_trace(), file2);
  std::filesystem::resize_file(file2,
                               std::filesystem::file_size(file2) - 7);
  EXPECT_THROW(read_netflow_v5(file2, nullptr), std::runtime_error);
}

TEST_F(NetflowV5Test, EmptyTraceMakesEmptyFile) {
  const std::string file = path();
  write_netflow_v5(Trace{}, file);
  const Trace back = read_netflow_v5(file, nullptr);
  EXPECT_TRUE(back.empty());
}

void expect_same_packets(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].sip, b[i].sip);
    EXPECT_EQ(a[i].dip, b[i].dip);
    EXPECT_EQ(a[i].sport, b[i].sport);
    EXPECT_EQ(a[i].dport, b[i].dport);
    EXPECT_EQ(a[i].len, b[i].len);
    EXPECT_EQ(a[i].flags, b[i].flags);
    EXPECT_EQ(a[i].proto, b[i].proto);
    EXPECT_EQ(a[i].outbound, b[i].outbound);
  }
}

TEST_F(NetflowV5Test, DatagramsStraddlingTheReadBuffer) {
  // 40000 records in 1464-byte datagrams make a ~1.9 MiB file, so some
  // datagram lies across the 1 MiB read buffer.
  Trace t;
  Pcg32 rng(5);
  for (int i = 0; i < 40000; ++i) {
    PacketRecord p;
    p.ts = static_cast<Timestamp>(i) * 1000;  // whole ms survive exactly
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{rng.next()};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.next());
    p.flags = i % 3 == 0 ? kSyn : (kSyn | kAck);
    t.push_back(p);
  }
  const std::string file = path();
  write_netflow_v5(t, file);
  ASSERT_GT(std::filesystem::file_size(file), std::size_t{1} << 20);
  NetflowV5ReadStats stats;
  const Trace back = read_netflow_v5(file, &stats);
  EXPECT_EQ(stats.records, t.size());
  EXPECT_EQ(stats.datagrams, (t.size() + 29) / 30);
  expect_same_packets(t, back);
}

TEST_F(NetflowV5Test, FinMergeMatchesStableSort) {
  // Hand-built datagrams whose records are out of time order, several on
  // one millisecond, some both opening and closing (SYN|FIN), some clamped
  // to t = 0. The decoder's run merge must equal a stable sort of the
  // events in file order.
  struct Rec {
    std::uint32_t first_ms;
    std::uint8_t flags;
    std::uint8_t proto;
  };
  const std::uint32_t uptime = 600000;
  const std::vector<std::vector<Rec>> datagrams = {
      {{599000, kSyn, 6},
       {598000, kSyn | kFin, 6},
       {599000, kFin | kAck, 6},
       {598000, kSyn | kAck, 6},
       {598999, 0, 17}},
      {{599000, kSyn | kAck | kFin, 6},
       {597000, kFin, 6},
       {599000, kSyn, 6},
       {100, kSyn | kFin, 6},
       {200, kSyn, 6}},
      // unix_secs 0 puts these before the epoch: clamped to t = 0.
      {{598000, kFin | kAck, 6}, {598000, kSyn, 6}, {597999, kSyn, 6}},
  };
  const std::uint32_t unix_secs_of[] = {1000, 1000, 0};

  std::vector<unsigned char> raw;
  const auto put16 = [&raw](std::uint16_t v) {
    raw.push_back(static_cast<unsigned char>(v >> 8));
    raw.push_back(static_cast<unsigned char>(v & 0xff));
  };
  const auto put32 = [&put16](std::uint32_t v) {
    put16(static_cast<std::uint16_t>(v >> 16));
    put16(static_cast<std::uint16_t>(v & 0xffff));
  };
  Trace expected;
  std::uint32_t sip = 1;
  for (std::size_t d = 0; d < datagrams.size(); ++d) {
    const std::uint32_t unix_secs = unix_secs_of[d];
    put16(5);
    put16(static_cast<std::uint16_t>(datagrams[d].size()));
    put32(uptime);
    put32(unix_secs);
    raw.resize(raw.size() + 12, 0);  // nsecs, sequence, engine, sampling
    for (const Rec& r : datagrams[d]) {
      const std::size_t at = raw.size();
      raw.resize(at + 48, 0);
      const auto set32 = [&raw](std::size_t off, std::uint32_t v) {
        for (int b = 0; b < 4; ++b) {
          raw[off + b] = static_cast<unsigned char>(v >> (24 - 8 * b));
        }
      };
      set32(at + 0, sip);
      set32(at + 4, 0x81690101u);
      set32(at + 24, r.first_ms);
      raw[at + 32] = static_cast<unsigned char>(sip >> 8);
      raw[at + 33] = static_cast<unsigned char>(sip);
      raw[at + 35] = 80;
      raw[at + 37] = r.flags;
      raw[at + 38] = r.proto;

      PacketRecord p;
      const std::int64_t us =
          std::int64_t{unix_secs} * 1000000 +
          (std::int64_t{r.first_ms} - std::int64_t{uptime}) * 1000;
      p.ts = static_cast<Timestamp>(std::max<std::int64_t>(us, 0));
      p.sip = IPv4{sip};
      p.dip = IPv4{0x81690101u};
      p.sport = static_cast<std::uint16_t>(sip);
      p.dport = 80;
      if (r.proto == 17) {
        p.proto = Protocol::kUdp;
        expected.push_back(p);
      }
      if (r.proto == 6 && (r.flags & kSyn) != 0) {
        PacketRecord syn = p;
        syn.flags = (r.flags & kAck) != 0 ? (kSyn | kAck) : kSyn;
        expected.push_back(syn);
      }
      if (r.proto == 6 && (r.flags & kFin) != 0) {
        PacketRecord fin = p;
        fin.ts = p.ts + 1;
        fin.flags = kFin | kAck;
        expected.push_back(fin);
      }
      ++sip;
    }
  }
  const std::string file = path();
  std::ofstream(file, std::ios::binary)
      .write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(raw.size()));

  expected.sort();
  Trace rebased;
  for (PacketRecord p : expected.packets()) {
    p.ts -= expected[0].ts;
    rebased.push_back(p);
  }
  const Trace back = read_netflow_v5(file, nullptr);
  ASSERT_EQ(back.size(), 16u);
  EXPECT_EQ(back[0].ts, 0u);
  expect_same_packets(rebased, back);
}

}  // namespace
}  // namespace hifind
