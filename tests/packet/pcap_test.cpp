#include "packet/pcap.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/rng.hpp"

namespace hifind {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  std::string path() {
    auto p = (std::filesystem::temp_directory_path() /
              ("hifind_pcap_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++) + ".pcap"))
                 .string();
    created_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  static bool internal(IPv4 ip) { return (ip.addr >> 16) == 0x8169; }

  int counter_{0};
  std::vector<std::string> created_;
};

Trace sample_trace() {
  Trace t;
  PacketRecord syn;
  syn.ts = 0;
  syn.sip = IPv4(100, 1, 2, 3);
  syn.dip = IPv4(129, 105, 1, 1);
  syn.sport = 44444;
  syn.dport = 443;
  syn.flags = kSyn;
  t.push_back(syn);

  PacketRecord synack;
  synack.ts = 1500;
  synack.sip = IPv4(129, 105, 1, 1);
  synack.dip = IPv4(100, 1, 2, 3);
  synack.sport = 443;
  synack.dport = 44444;
  synack.flags = kSyn | kAck;
  t.push_back(synack);

  PacketRecord udp;
  udp.ts = 2 * kMicrosPerSecond + 7;
  udp.sip = IPv4(10, 0, 0, 1);
  udp.dip = IPv4(129, 105, 2, 2);
  udp.sport = 5353;
  udp.dport = 53;
  udp.proto = Protocol::kUdp;
  t.push_back(udp);
  return t;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  const std::string file = path();
  write_pcap(sample_trace(), file);
  PcapReadStats stats;
  const Trace back = read_pcap(file, internal, &stats);

  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.packets, 3u);
  EXPECT_EQ(back[0].sip, IPv4(100, 1, 2, 3));
  EXPECT_EQ(back[0].dport, 443);
  EXPECT_TRUE(back[0].is_syn());
  EXPECT_FALSE(back[0].outbound) << "external source => inbound";
  EXPECT_TRUE(back[1].is_synack());
  EXPECT_TRUE(back[1].outbound) << "internal source => outbound";
  EXPECT_EQ(back[1].ts, 1500u) << "timestamps rebased to first frame";
  EXPECT_EQ(back[2].proto, Protocol::kUdp);
  EXPECT_EQ(back[2].dport, 53);
  EXPECT_EQ(back[2].flags, 0);
}

TEST_F(PcapTest, SynDeltaSurvivesRoundTrip) {
  // The property detection relies on: flag semantics survive the format.
  const std::string file = path();
  write_pcap(sample_trace(), file);
  const Trace back = read_pcap(file, internal, nullptr);
  EXPECT_EQ(syn_delta(back[0]), 1);
  EXPECT_EQ(syn_delta(back[1]), -1);
  EXPECT_EQ(syn_delta(back[2]), 0);
}

TEST_F(PcapTest, OutOfOrderFramesAreOrderedAndNeverWrap) {
  // Real captures can step backwards (multi-queue capture, clock steps).
  // A frame stamped before the first one must neither wrap below the
  // rebase point nor leave the trace out of time order; equal stamps keep
  // file order.
  const Timestamp t0 = 1'700'000'000ULL * kMicrosPerSecond;
  Trace written;
  const Timestamp stamps[] = {t0, t0 - kMicrosPerSecond,
                              t0 - kMicrosPerSecond, t0 + 2 * kMicrosPerSecond};
  for (std::size_t i = 0; i < 4; ++i) {
    PacketRecord p;
    p.ts = stamps[i];
    p.sip = IPv4(100, 1, 2, 3);
    p.dip = IPv4(129, 105, 1, 1);
    p.sport = static_cast<std::uint16_t>(1000 + i);
    p.dport = 80;
    p.flags = kSyn;
    written.push_back(p);  // file order, deliberately not time order
  }
  const std::string file = path();
  write_pcap(written, file);

  const Trace rebased = read_pcap(file, internal, nullptr);
  ASSERT_EQ(rebased.size(), 4u);
  const std::uint16_t order[] = {1001, 1002, 1000, 1003};
  const Timestamp rebased_ts[] = {0, 0, kMicrosPerSecond,
                                  3 * kMicrosPerSecond};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rebased[i].sport, order[i]) << "packet " << i;
    EXPECT_EQ(rebased[i].ts, rebased_ts[i]) << "packet " << i;
  }

  const Trace absolute = read_pcap(file, internal, nullptr, /*rebase=*/false);
  ASSERT_EQ(absolute.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(absolute[i].sport, order[i]) << "packet " << i;
    EXPECT_EQ(absolute[i].ts, t0 - kMicrosPerSecond + rebased_ts[i])
        << "packet " << i;
  }
}

TEST_F(PcapTest, RejectsGarbage) {
  const std::string file = path();
  std::ofstream(file) << "definitely not a pcap file, sorry about that";
  EXPECT_THROW(read_pcap(file, internal, nullptr), std::runtime_error);
  EXPECT_THROW(read_pcap("/no/such/file.pcap", internal, nullptr),
               std::runtime_error);
}

TEST_F(PcapTest, RejectsTruncatedFrameBody) {
  const std::string file = path();
  write_pcap(sample_trace(), file);
  std::filesystem::resize_file(file, std::filesystem::file_size(file) - 5);
  EXPECT_THROW(read_pcap(file, internal, nullptr), std::runtime_error);
}

TEST_F(PcapTest, SkipsNonIpEthernetFrames) {
  // Hand-build an Ethernet-linktype capture: one ARP frame, one IPv4 TCP.
  const std::string file = path();
  std::ofstream os(file, std::ios::binary);
  auto put32 = [&](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), 4);
  };
  auto put16 = [&](std::uint16_t v) {
    os.write(reinterpret_cast<const char*>(&v), 2);
  };
  put32(0xa1b2c3d4);
  put16(2);
  put16(4);
  put32(0);
  put32(0);
  put32(65535);
  put32(1);  // Ethernet

  auto frame = [&](std::uint16_t ethertype,
                   const std::vector<unsigned char>& payload) {
    put32(0);  // ts_sec
    put32(0);  // ts_usec
    put32(static_cast<std::uint32_t>(14 + payload.size()));
    put32(static_cast<std::uint32_t>(14 + payload.size()));
    unsigned char eth[14] = {};
    eth[12] = static_cast<unsigned char>(ethertype >> 8);
    eth[13] = static_cast<unsigned char>(ethertype & 0xff);
    os.write(reinterpret_cast<const char*>(eth), 14);
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  };

  frame(0x0806, std::vector<unsigned char>(28, 0));  // ARP

  std::vector<unsigned char> ip(40, 0);
  ip[0] = 0x45;
  ip[2] = 0;
  ip[3] = 40;
  ip[9] = 6;  // TCP
  ip[12] = 129;
  ip[13] = 105;
  ip[14] = 1;
  ip[15] = 1;
  ip[16] = 100;
  ip[17] = 1;
  ip[18] = 1;
  ip[19] = 1;
  ip[20 + 13] = kSyn | kAck;
  ip[20 + 12] = 5 << 4;
  ip[20 + 0] = 443 >> 8;
  ip[20 + 1] = 443 & 0xff;
  frame(0x0800, ip);
  os.close();

  PcapReadStats stats;
  const Trace back = read_pcap(file, internal, &stats);
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_EQ(stats.non_ip, 1u);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].is_synack());
  EXPECT_EQ(back[0].sport, 443);
}

TEST_F(PcapTest, ReadsSwappedByteOrder) {
  // Same file as write_pcap produces, but with all header fields swapped —
  // a capture written on an opposite-endianness machine.
  const std::string native = path();
  write_pcap(sample_trace(), native);
  std::ifstream is(native, std::ios::binary);
  std::vector<unsigned char> raw((std::istreambuf_iterator<char>(is)),
                                 std::istreambuf_iterator<char>());
  auto swap32 = [&](std::size_t off) {
    std::swap(raw[off], raw[off + 3]);
    std::swap(raw[off + 1], raw[off + 2]);
  };
  auto swap16 = [&](std::size_t off) { std::swap(raw[off], raw[off + 1]); };
  swap32(0);
  swap16(4);
  swap16(6);
  swap32(8);
  swap32(12);
  swap32(16);
  swap32(20);
  std::size_t off = 24;
  while (off + 16 <= raw.size()) {
    // read incl_len BEFORE swapping it (file is currently native order)
    std::uint32_t incl;
    std::memcpy(&incl, raw.data() + off + 8, 4);
    swap32(off);
    swap32(off + 4);
    swap32(off + 8);
    swap32(off + 12);
    off += 16 + incl;
  }
  const std::string swapped = path();
  std::ofstream(swapped, std::ios::binary)
      .write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(raw.size()));

  const Trace back = read_pcap(swapped, internal, nullptr);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back[0].is_syn());
  EXPECT_EQ(back[1].ts, 1500u);
}

TEST_F(PcapTest, LargeTraceRoundTripsEfficiently) {
  Trace t;
  Pcg32 rng(7);
  for (int i = 0; i < 20000; ++i) {
    PacketRecord p;
    p.ts = static_cast<Timestamp>(i) * 50;
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{0x81690000u | (rng.next() & 0xffff)};
    p.sport = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
    p.dport = static_cast<std::uint16_t>(rng.bounded(1024));
    p.flags = rng.chance(0.5) ? kSyn : (kSyn | kAck);
    t.push_back(p);
  }
  const std::string file = path();
  write_pcap(t, file);
  const Trace back = read_pcap(file, internal, nullptr);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); i += 997) {
    EXPECT_EQ(back[i].sip, t[i].sip);
    EXPECT_EQ(back[i].dport, t[i].dport);
    EXPECT_EQ(back[i].flags, t[i].flags);
  }
}

Trace random_tcp_trace(std::size_t n, std::uint64_t seed) {
  Trace t;
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    PacketRecord p;
    p.ts = static_cast<Timestamp>(i) * 37;
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{0x81690000u | (rng.next() & 0xffff)};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.next());
    p.flags = static_cast<std::uint8_t>(rng.bounded(64));
    t.push_back(p);
  }
  return t;
}

std::vector<char> file_bytes(const std::string& file) {
  std::ifstream is(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
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

TEST_F(PcapTest, FramesStraddlingTheReadBufferDecodeIdentically) {
  // ~2.2 MiB of 56-byte frames, whose record headers fall across the 1 MiB
  // read buffer, with one 1.5 MiB frame in the middle: padding the middle
  // frame's body must not change a single decoded packet.
  const Trace t = random_tcp_trace(40000, 11);
  const std::string plain = path();
  write_pcap(t, plain);
  std::vector<char> raw = file_bytes(plain);

  constexpr std::size_t kFrameBytes = 16 + 40;
  constexpr std::uint32_t kPad = 3u << 19;
  const std::size_t big = 24 + 20000 * kFrameBytes;
  for (const std::size_t field : {big + 8, big + 12}) {  // incl, orig_len
    std::uint32_t v;
    std::memcpy(&v, raw.data() + field, 4);
    v += kPad;
    std::memcpy(raw.data() + field, &v, 4);
  }
  raw.insert(raw.begin() + static_cast<std::ptrdiff_t>(big + kFrameBytes),
             kPad, '\x5a');
  const std::string padded = path();
  std::ofstream(padded, std::ios::binary)
      .write(raw.data(), static_cast<std::streamsize>(raw.size()));

  PcapReadStats want_stats, got_stats;
  const Trace want = read_pcap(plain, internal, &want_stats, false);
  const Trace got = read_pcap(padded, internal, &got_stats, false);
  EXPECT_EQ(want.size(), t.size());
  EXPECT_EQ(got_stats.frames, want_stats.frames);
  EXPECT_EQ(got_stats.packets, want_stats.packets);
  expect_same_packets(want, got);

  // Cut inside the big frame: its body is short, not its header window.
  std::filesystem::resize_file(padded, big + kFrameBytes + kPad / 2);
  EXPECT_THROW(read_pcap(padded, internal, nullptr), std::runtime_error);
}

TEST_F(PcapTest, ReadsFromAPipe) {
  // A FIFO has no size: the reader takes the unreserved path.
  const std::string file = path();
  write_pcap(random_tcp_trace(30000, 12), file);
  const std::vector<char> raw = file_bytes(file);
  const std::string fifo = path();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  std::thread writer([&fifo, &raw] {
    std::ofstream(fifo, std::ios::binary)
        .write(raw.data(), static_cast<std::streamsize>(raw.size()));
  });
  Trace got;
  try {
    got = read_pcap(fifo, internal, nullptr);
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  expect_same_packets(read_pcap(file, internal, nullptr), got);
}

}  // namespace
}  // namespace hifind
