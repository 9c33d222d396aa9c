// Differential fuzz test of the trace decoders.
//
// read_pcap, read_netflow_v5 and read_trace parse each record straight out
// of a fixed read buffer. The reference decoders below are the earlier
// whole-buffer ones, which copied the file into memory and indexed it
// directly; they are kept here verbatim except for the HFT1 packet-count
// check, which overflowed. read_pcap returns a time-ordered trace rebased to
// its earliest frame, so the pcap reference runs unrebased and its output is
// stably sorted and rebased by ordered_ref_pcap. A seeded, structure-aware
// mutator builds valid files, then truncates them, flips header bytes,
// rewrites lengths, counts and pcap timestamps, appends trailing bytes and
// grows frames and files across the read buffer. Both decoders must return
// the same packets (every field) and the same stats, or throw the same
// exception type with the same message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "packet/netflow_v5.hpp"
#include "packet/pcap.hpp"
#include "packet/trace_io.hpp"

namespace hifind {
namespace {

// --- Reference decoders -----------------------------------------------------

namespace ref_pcap {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicrosSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosSwapped = 0x4d3cb2a1;

constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRawIp = 101;

constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

std::uint32_t bswap32(std::uint32_t v) { return __builtin_bswap32(v); }
std::uint16_t bswap16(std::uint16_t v) { return __builtin_bswap16(v); }

/// File-order-aware 32/16-bit reads from a byte buffer.
struct FileView {
  const unsigned char* data;
  std::size_t size;
  bool swapped;  ///< file byte order differs from host

  std::uint32_t u32_at(std::size_t off) const {
    std::uint32_t v;
    std::memcpy(&v, data + off, 4);
    return swapped ? bswap32(v) : v;
  }
  std::uint16_t u16_at(std::size_t off) const {
    std::uint16_t v;
    std::memcpy(&v, data + off, 2);
    return swapped ? bswap16(v) : v;
  }
};

/// Big-endian (network order) reads inside a frame.
std::uint16_t be16(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t be32(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// Parses IPv4+transport headers starting at `p`; returns false (and bumps
/// the right counter) when the frame is not a TCP/UDP-over-IPv4 packet.
bool parse_ip(const unsigned char* p, std::size_t len, PacketRecord& rec,
              PcapReadStats& stats) {
  if (len < 20) {
    ++stats.truncated;
    return false;
  }
  if ((p[0] >> 4) != 4) {
    ++stats.non_ip;
    return false;
  }
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
  if (ihl < 20 || len < ihl) {
    ++stats.truncated;
    return false;
  }
  const std::uint8_t proto = p[9];
  if (proto != kProtoTcp && proto != kProtoUdp) {
    ++stats.non_tcp_udp;
    return false;
  }
  rec.len = be16(p + 2);  // IP total length
  rec.sip = IPv4{be32(p + 12)};
  rec.dip = IPv4{be32(p + 16)};
  rec.proto = proto == kProtoTcp ? Protocol::kTcp : Protocol::kUdp;

  const unsigned char* t = p + ihl;
  const std::size_t tlen = len - ihl;
  if (proto == kProtoTcp) {
    if (tlen < 14) {
      ++stats.truncated;
      return false;
    }
    rec.sport = be16(t);
    rec.dport = be16(t + 2);
    rec.flags = static_cast<std::uint8_t>(t[13] & 0x3f);
  } else {
    if (tlen < 8) {
      ++stats.truncated;
      return false;
    }
    rec.sport = be16(t);
    rec.dport = be16(t + 2);
    rec.flags = 0;
  }
  return true;
}

}  // namespace

Trace read_pcap(const std::string& path,
                const std::function<bool(IPv4)>& is_internal,
                PcapReadStats* stats_out, bool rebase) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open pcap file: " + path);
  std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  if (raw.size() < 24) throw std::runtime_error("pcap too short: " + path);
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());

  std::uint32_t magic;
  std::memcpy(&magic, bytes, 4);
  bool swapped = false, nanos = false;
  switch (magic) {
    case kMagicMicros:
      break;
    case kMagicNanos:
      nanos = true;
      break;
    case kMagicMicrosSwapped:
      swapped = true;
      break;
    case kMagicNanosSwapped:
      swapped = true;
      nanos = true;
      break;
    default:
      throw std::runtime_error("not a pcap file (bad magic): " + path);
  }
  const FileView f{bytes, raw.size(), swapped};
  const std::uint32_t linktype = f.u32_at(20);
  std::size_t link_skip;
  if (linktype == kLinkEthernet) {
    link_skip = 14;
  } else if (linktype == kLinkRawIp) {
    link_skip = 0;
  } else {
    throw std::runtime_error("unsupported pcap link type " +
                             std::to_string(linktype) + ": " + path);
  }

  PcapReadStats stats;
  Trace trace;
  bool have_base = false;
  std::uint64_t base_us = 0;
  std::size_t off = 24;
  while (off + 16 <= raw.size()) {
    const std::uint32_t ts_sec = f.u32_at(off);
    const std::uint32_t ts_frac = f.u32_at(off + 4);
    const std::uint32_t incl = f.u32_at(off + 8);
    off += 16;
    if (off + incl > raw.size()) {
      throw std::runtime_error("truncated pcap frame body: " + path);
    }
    ++stats.frames;
    const unsigned char* frame = bytes + off;
    off += incl;

    std::size_t ip_off = link_skip;
    if (linktype == kLinkEthernet) {
      if (incl < 14) {
        ++stats.truncated;
        continue;
      }
      if (be16(frame + 12) != kEthertypeIpv4) {
        ++stats.non_ip;
        continue;
      }
    }
    PacketRecord rec;
    if (!parse_ip(frame + ip_off, incl - ip_off, rec, stats)) continue;

    const std::uint64_t us =
        std::uint64_t{ts_sec} * 1000000 + (nanos ? ts_frac / 1000 : ts_frac);
    if (!have_base) {
      base_us = rebase ? us : 0;
      have_base = true;
    }
    rec.ts = us - base_us;
    rec.outbound = is_internal ? is_internal(rec.sip) : false;
    trace.push_back(rec);
    ++stats.packets;
  }
  if (stats_out != nullptr) *stats_out = stats;
  return trace;
}
}  // namespace ref_pcap

namespace ref_nf5 {
namespace {

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kRecordBytes = 48;
constexpr std::uint16_t kVersion = 5;
constexpr std::size_t kMaxRecordsPerDatagram = 30;

std::uint16_t be16(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t be32(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
}  // namespace

Trace read_netflow_v5(const std::string& path, NetflowV5ReadStats* stats_out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open netflow file: " + path);
  std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());

  NetflowV5ReadStats stats;
  Trace trace;
  std::size_t off = 0;
  while (off + kHeaderBytes <= raw.size()) {
    const std::uint16_t version = be16(bytes + off);
    if (version != kVersion) {
      throw std::runtime_error("netflow v5: unexpected version " +
                               std::to_string(version) + " in " + path);
    }
    const std::uint16_t count = be16(bytes + off + 2);
    const std::uint32_t sysuptime_ms = be32(bytes + off + 4);
    const std::uint32_t unix_secs = be32(bytes + off + 8);
    if (count == 0 || count > kMaxRecordsPerDatagram) {
      throw std::runtime_error("netflow v5: implausible record count");
    }
    const std::size_t body = off + kHeaderBytes;
    if (body + std::size_t{count} * kRecordBytes > raw.size()) {
      throw std::runtime_error("netflow v5: truncated datagram in " + path);
    }
    ++stats.datagrams;

    for (std::uint16_t i = 0; i < count; ++i) {
      const unsigned char* r = bytes + body + std::size_t{i} * kRecordBytes;
      ++stats.records;
      const std::uint32_t first_ms = be32(r + 24);
      const std::uint8_t tcp_flags = r[37];
      const std::uint8_t proto = r[38];

      // Absolute microseconds of the flow's first packet: the export time
      // (unix_secs at sysuptime) minus the uptime delta to first-switched.
      const std::int64_t delta_ms = static_cast<std::int64_t>(first_ms) -
                                    static_cast<std::int64_t>(sysuptime_ms);
      const std::int64_t us =
          static_cast<std::int64_t>(unix_secs) * 1000000 + delta_ms * 1000;

      PacketRecord p;
      p.ts = static_cast<Timestamp>(std::max<std::int64_t>(us, 0));
      p.sip = IPv4{be32(r + 0)};
      p.dip = IPv4{be32(r + 4)};
      p.sport = be16(r + 32);
      p.dport = be16(r + 34);
      p.len = 40;

      if (proto == 17) {
        p.proto = Protocol::kUdp;
        trace.push_back(p);
        ++stats.non_tcp;
        continue;
      }
      if (proto != 6) {
        ++stats.non_tcp;
        continue;
      }
      bool emitted = false;
      if ((tcp_flags & kSyn) != 0) {
        PacketRecord syn = p;
        // SYN+ACK in the flow's OR'd flags marks the responder's half.
        syn.flags =
            (tcp_flags & kAck) != 0 ? (kSyn | kAck) : kSyn;
        trace.push_back(syn);
        ++stats.packets_emitted;
        emitted = true;
      }
      if ((tcp_flags & kFin) != 0) {
        PacketRecord fin = p;
        fin.ts = p.ts + 1;  // close strictly after open
        fin.flags = kFin | kAck;
        trace.push_back(fin);
        ++stats.packets_emitted;
        emitted = true;
      }
      if (!emitted) ++stats.flagless;
    }
    off = body + std::size_t{count} * kRecordBytes;
  }
  if (off != raw.size()) {
    throw std::runtime_error("netflow v5: trailing bytes in " + path);
  }

  // Rebase to the earliest event and time-order.
  trace.sort();
  if (!trace.empty()) {
    const Timestamp base = trace[0].ts;
    Trace rebased;
    rebased.reserve(trace.size());
    for (PacketRecord p : trace.packets()) {
      p.ts -= base;
      rebased.push_back(p);
    }
    trace = std::move(rebased);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return trace;
}
}  // namespace ref_nf5

namespace ref_hft1 {
namespace {

constexpr char kMagic[4] = {'H', 'F', 'T', '1'};
constexpr std::size_t kRecordBytes = 8 + 4 + 4 + 2 + 2 + 2 + 1 + 1 + 1;

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(get_u16(p)) |
         (static_cast<std::uint32_t>(get_u16(p + 2)) << 16);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

Trace read_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open trace file for read: " + path);

  std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  if (raw.size() < 16 || std::memcmp(raw.data(), kMagic, 4) != 0) {
    throw std::runtime_error("not a HFT1 trace file: " + path);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());
  const std::uint32_t version = get_u32(bytes + 4);
  if (version != 1) {
    throw std::runtime_error("unsupported trace version in " + path);
  }
  const std::uint64_t count = get_u64(bytes + 8);
  // The one change from the whole-buffer original: compare by division,
  // since 16 + count * kRecordBytes wraps for a crafted count.
  if ((raw.size() - 16) % kRecordBytes != 0 ||
      (raw.size() - 16) / kRecordBytes != count) {
    throw std::runtime_error("truncated trace file: " + path);
  }

  Trace trace;
  trace.reserve(count);
  const unsigned char* p = bytes + 16;
  for (std::uint64_t i = 0; i < count; ++i, p += kRecordBytes) {
    PacketRecord rec;
    rec.ts = get_u64(p);
    rec.sip = IPv4{get_u32(p + 8)};
    rec.dip = IPv4{get_u32(p + 12)};
    rec.sport = get_u16(p + 16);
    rec.dport = get_u16(p + 18);
    rec.len = get_u16(p + 20);
    rec.flags = p[22];
    rec.proto = static_cast<Protocol>(p[23]);
    rec.outbound = p[24] != 0;
    trace.push_back(rec);
  }
  return trace;
}
}  // namespace ref_hft1

// --- Running and comparing --------------------------------------------------

/// What one decoder made of one file.
struct Outcome {
  std::string error;  ///< "<exception type>: <what()>", empty on success
  Trace trace;
  std::vector<std::size_t> stats;
};

Outcome outcome_of(const std::function<void(Outcome&)>& decode) {
  Outcome o;
  try {
    decode(o);
  } catch (const std::exception& e) {
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

::testing::AssertionResult same(const Outcome& want, const Outcome& got) {
  if (want.error != got.error) {
    return ::testing::AssertionFailure()
           << "reference threw '" << want.error << "', decoder threw '"
           << got.error << "'";
  }
  if (want.stats != got.stats) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  if (want.trace.size() != got.trace.size()) {
    return ::testing::AssertionFailure()
           << want.trace.size() << " vs " << got.trace.size() << " packets";
  }
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    const PacketRecord& a = want.trace[i];
    const PacketRecord& b = got.trace[i];
    if (a.ts != b.ts || a.sip != b.sip || a.dip != b.dip ||
        a.sport != b.sport || a.dport != b.dport || a.len != b.len ||
        a.flags != b.flags || a.proto != b.proto || a.outbound != b.outbound) {
      return ::testing::AssertionFailure() << "packet " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class DecoderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = (std::filesystem::temp_directory_path() /
             ("hifind_decoder_fuzz_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
  }
  void TearDown() override { std::remove(file_.c_str()); }

  void write(const std::vector<unsigned char>& bytes) const {
    std::ofstream(file_, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }

  std::string file_;
};

// --- Structure-aware mutator ------------------------------------------------

/// A generated file plus the offsets the mutator aims at.
struct Layout {
  std::vector<unsigned char> bytes;
  std::vector<std::size_t> records;  ///< start of each record / datagram
  bool swapped{false};               ///< pcap only: non-native byte order
};

/// Appends `v` in big-endian (network) order.
void put_be(std::vector<unsigned char>& out, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

/// Overwrites 4 bytes at `off` in the file's byte order.
void set_u32(std::vector<unsigned char>& b, std::size_t off, std::uint32_t v,
             bool swapped) {
  if (off + 4 > b.size()) return;
  if (swapped) v = __builtin_bswap32(v);
  std::memcpy(b.data() + off, &v, 4);
}

void flip_byte(Pcg32& rng, std::vector<unsigned char>& b, std::size_t off) {
  if (off < b.size()) {
    b[off] ^= static_cast<unsigned char>(1 + rng.bounded(255));
  }
}

/// The mutations every format shares, applied last: 1-23 trailing bytes,
/// then a cut at a random offset.
void mutate_tail(Pcg32& rng, std::vector<unsigned char>& b) {
  if (rng.chance(0.2)) {
    const std::uint32_t n = 1 + rng.bounded(23);
    for (std::uint32_t i = 0; i < n; ++i) {
      b.push_back(static_cast<unsigned char>(rng.next()));
    }
  }
  if (rng.chance(0.2) && !b.empty()) {
    b.resize(rng.bounded(static_cast<std::uint32_t>(b.size())));
  }
}

std::size_t pick(Pcg32& rng, const std::vector<std::size_t>& v) {
  return v[rng.bounded(static_cast<std::uint32_t>(v.size()))];
}

/// A pcap file in any of the four magics, with Ethernet, raw-IP or an
/// unknown link type, and frames mixing TCP, UDP, ICMP, non-IPv4, IP
/// options, snap-truncated bodies and random payloads. One frame of
/// `big_frame` payload bytes goes in the middle when it is non-zero.
Layout make_pcap(Pcg32& rng, std::size_t frames, std::size_t big_frame) {
  Layout l;
  l.swapped = rng.chance(0.5);
  const bool swapped = l.swapped;
  const bool nanos = rng.chance(0.5);
  std::uint32_t link = rng.chance(0.5) ? 1 : 101;
  if (rng.chance(0.05)) link = rng.next();
  std::vector<unsigned char>& b = l.bytes;
  b.resize(24, 0);
  set_u32(b, 0, nanos ? 0xa1b23c4d : 0xa1b2c3d4, swapped);
  set_u32(b, 8, 0, swapped);
  set_u32(b, 16, 65535, swapped);
  set_u32(b, 20, link, swapped);
  b[4] = swapped ? 0 : 2;
  b[6] = swapped ? 0 : 4;
  // Half the files are stamped in time order, as most captures are; the
  // rest take a random second per frame.
  const bool ordered = rng.chance(0.5);
  const std::uint32_t first_sec = 1 + rng.bounded(0x7fffffff);

  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<unsigned char> frame;
    if (link == 1) {
      for (int i = 0; i < 12; ++i) {
        frame.push_back(static_cast<unsigned char>(rng.next()));
      }
      put_be(frame, rng.chance(0.9) ? 0x0800 : rng.bounded(0x10000), 2);
    }
    const std::uint32_t ihl = rng.chance(0.85) ? 5 : rng.bounded(16);
    const std::uint8_t proto = rng.chance(0.9)
                                   ? (rng.chance(0.6) ? 6 : 17)
                                   : static_cast<std::uint8_t>(rng.next());
    const std::uint8_t version = rng.chance(0.95) ? 4 : 6;
    frame.push_back(static_cast<unsigned char>((version << 4) | ihl));
    frame.push_back(0);
    put_be(frame, rng.bounded(0x10000), 2);  // total length
    for (int i = 0; i < 5; ++i) frame.push_back(0);
    frame.push_back(proto);
    put_be(frame, 0, 2);
    put_be(frame, rng.next(), 4);
    put_be(frame, rng.next(), 4);
    for (std::uint32_t i = 5; i < ihl; ++i) put_be(frame, rng.next(), 4);
    const std::size_t transport = proto == 6 ? 20 : 8;
    for (std::size_t i = 0; i < transport; ++i) {
      frame.push_back(static_cast<unsigned char>(rng.next()));
    }
    std::size_t payload = rng.bounded(48);
    if (big_frame != 0 && f == frames / 2) payload = big_frame;
    frame.resize(frame.size() + payload,
                 static_cast<unsigned char>(rng.next()));
    if (rng.chance(0.1)) frame.resize(rng.bounded(60));  // snap length

    const auto incl = static_cast<std::uint32_t>(frame.size());
    const std::size_t at = b.size();
    l.records.push_back(at);
    b.resize(at + 16);
    set_u32(b, at,
            ordered ? first_sec + static_cast<std::uint32_t>(f) : rng.next(),
            swapped);
    set_u32(b, at + 4, rng.bounded(nanos ? 1000000000 : 1000000), swapped);
    set_u32(b, at + 8, incl, swapped);
    set_u32(b, at + 12, incl + (rng.chance(0.2) ? rng.bounded(1500) : 0),
            swapped);
    b.insert(b.end(), frame.begin(), frame.end());
  }
  return l;
}

void mutate_pcap(Pcg32& rng, Layout& l) {
  std::vector<unsigned char>& b = l.bytes;
  const bool swapped = l.swapped;
  const std::uint32_t flips = rng.bounded(4);
  for (std::uint32_t i = 0; i < flips; ++i) {
    if (rng.chance(0.1) || l.records.empty()) {
      flip_byte(rng, b, rng.bounded(24));  // global header
      continue;
    }
    const std::size_t rec = pick(rng, l.records);
    switch (rng.bounded(4)) {
      case 0:  // record header
        flip_byte(rng, b, rec + rng.bounded(16));
        break;
      case 1:  // link header
        flip_byte(rng, b, rec + 16 + rng.bounded(14));
        break;
      case 2:  // IP header, either link type
        flip_byte(rng, b, rec + 16 + 14 * rng.bounded(2) + rng.bounded(20));
        break;
      default:  // TCP / UDP header, either link type
        flip_byte(rng, b,
                  rec + 16 + 14 * rng.bounded(2) + 20 + rng.bounded(20));
    }
  }
  if (rng.chance(0.15) && !l.records.empty()) {
    const std::size_t rec = pick(rng, l.records);
    std::uint32_t orig;
    std::memcpy(&orig, b.data() + rec + 12, 4);
    if (swapped) orig = __builtin_bswap32(orig);
    const std::uint32_t choices[] = {orig + 1 + rng.bounded(100), 0xffffffffu,
                                     0x80000000u, rng.next(),
                                     static_cast<std::uint32_t>(b.size())};
    set_u32(b, rec + 8, choices[rng.bounded(5)], swapped);
  }
  if (rng.chance(0.3) && l.records.size() > 1) {
    // Stamp a later record before the first frame (a clock step back), or
    // with exactly the first frame's stamp (a tie that must keep file
    // order).
    const std::size_t first = l.records.front();
    std::uint32_t sec, frac;
    std::memcpy(&sec, b.data() + first, 4);
    std::memcpy(&frac, b.data() + first + 4, 4);
    if (swapped) {
      sec = __builtin_bswap32(sec);
      frac = __builtin_bswap32(frac);
    }
    const std::uint32_t later =
        1 + rng.bounded(static_cast<std::uint32_t>(l.records.size() - 1));
    const std::size_t rec = l.records[later];
    if (rng.chance(0.5) && sec > 0) sec = rng.bounded(sec);
    set_u32(b, rec, sec, swapped);
    set_u32(b, rec + 4, frac, swapped);
  }
  mutate_tail(rng, b);
}

/// Concatenated NetFlow v5 datagrams with random clocks (some before the
/// epoch, so their events clamp to t = 0), records out of time order, every
/// combination of TCP flags and a mix of protocols.
Layout make_netflow(Pcg32& rng, std::size_t datagrams) {
  Layout l;
  std::vector<unsigned char>& b = l.bytes;
  for (std::size_t d = 0; d < datagrams; ++d) {
    const std::uint32_t count = 1 + rng.bounded(30);
    const std::uint32_t uptime = 1000000 + rng.bounded(1000000);
    const std::uint32_t unix_secs =
        rng.chance(0.1) ? rng.bounded(100) : 1000000 + rng.bounded(50);
    l.records.push_back(b.size());
    put_be(b, 5, 2);
    put_be(b, count, 2);
    put_be(b, uptime, 4);
    put_be(b, unix_secs, 4);
    put_be(b, rng.next(), 4);
    put_be(b, rng.next(), 4);
    put_be(b, 0, 4);
    for (std::uint32_t r = 0; r < count; ++r) {
      const std::size_t at = b.size();
      for (int i = 0; i < 48; ++i) {
        b.push_back(static_cast<unsigned char>(rng.next()));
      }
      const std::uint32_t first =
          uptime - rng.bounded(rng.chance(0.5) ? 3000 : 500000);
      for (int i = 0; i < 4; ++i) {
        b[at + 24 + i] = static_cast<unsigned char>(first >> (24 - 8 * i));
      }
      b[at + 37] = static_cast<unsigned char>(rng.bounded(64));
      const std::uint8_t protos[] = {6, 6, 6, 17, 1};
      b[at + 38] = protos[rng.bounded(5)];
    }
  }
  return l;
}

void mutate_netflow(Pcg32& rng, Layout& l) {
  std::vector<unsigned char>& b = l.bytes;
  if (!l.records.empty()) {
    const std::size_t dg = pick(rng, l.records);
    switch (rng.bounded(6)) {
      case 0: {  // record count: 0, 31 or anything
        const std::uint32_t counts[] = {0, 31, rng.bounded(0x10000)};
        const std::uint32_t c = counts[rng.bounded(3)];
        b[dg + 2] = static_cast<unsigned char>(c >> 8);
        b[dg + 3] = static_cast<unsigned char>(c);
        break;
      }
      case 1:  // version
        flip_byte(rng, b, dg + rng.bounded(2));
        break;
      case 2:  // rest of the header
        flip_byte(rng, b, dg + 4 + rng.bounded(20));
        break;
      case 3:  // a record
        flip_byte(rng, b, dg + 24 + rng.bounded(30 * 48));
        break;
      default:
        break;
    }
  }
  mutate_tail(rng, b);
}

/// An HFT1 file of `packets` random records.
Layout make_hft1(Pcg32& rng, std::size_t packets, const std::string& scratch) {
  Trace t;
  for (std::size_t i = 0; i < packets; ++i) {
    PacketRecord p;
    p.ts = rng.next64() >> 16;
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{rng.next()};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.next());
    p.len = static_cast<std::uint16_t>(rng.next());
    p.flags = static_cast<std::uint8_t>(rng.next());
    p.proto = rng.chance(0.5) ? Protocol::kTcp : Protocol::kUdp;
    p.outbound = rng.chance(0.5);
    t.push_back(p);
  }
  write_trace(t, scratch);
  std::ifstream is(scratch, std::ios::binary);
  Layout l;
  l.bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  for (std::size_t i = 0; i < packets; ++i) l.records.push_back(16 + 25 * i);
  return l;
}

/// Overwrites the HFT1 header's little-endian packet count.
void set_count(std::vector<unsigned char>& b, std::uint64_t count) {
  for (int i = 0; i < 8; ++i) {
    b[8 + i] = static_cast<unsigned char>(count >> (8 * i));
  }
}

void mutate_hft1(Pcg32& rng, Layout& l) {
  std::vector<unsigned char>& b = l.bytes;
  switch (rng.bounded(5)) {
    case 0:
      flip_byte(rng, b, rng.bounded(16));
      break;
    case 1: {  // packet count: off by one or anything
      std::uint64_t count = l.records.size();
      const std::uint64_t counts[] = {count + 1, count - 1, rng.next64()};
      set_count(b, counts[rng.bounded(3)]);
      break;
    }
    case 2:
      if (!l.records.empty()) {
        flip_byte(rng, b, pick(rng, l.records) + rng.bounded(25));
      }
      break;
    default:
      break;
  }
  mutate_tail(rng, b);
  if (rng.chance(0.1) && b.size() >= 16) {
    // 25 * 10330176681277348905 == 1 (mod 2^64): a count whose product with
    // the record size wraps around to the body length actually present.
    set_count(b, (b.size() - 16) * 10330176681277348905ULL);
  }
}

// --- The tests ----------------------------------------------------------------

/// The reference pcap decoder under read_pcap's ordering contract: decode
/// unrebased, stably sort by timestamp, then rebase to the earliest frame.
Trace ordered_ref_pcap(const std::string& path,
                       const std::function<bool(IPv4)>& is_internal,
                       PcapReadStats* stats, bool rebase) {
  const Trace decoded =
      ref_pcap::read_pcap(path, is_internal, stats, /*rebase=*/false);
  std::vector<PacketRecord> packets(decoded.packets().begin(),
                                    decoded.packets().end());
  std::stable_sort(packets.begin(), packets.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.ts < b.ts;
                   });
  if (rebase && !packets.empty()) {
    const Timestamp base = packets.front().ts;
    for (PacketRecord& p : packets) p.ts -= base;
  }
  return Trace(std::move(packets));
}

// The iteration counts keep the three tests near one second together in the
// default build. The last few cases of each test are files of more than the
// 1 MiB read buffer.
constexpr int kSmallCases = 1000;
constexpr int kLargeCases = 3;

TEST_F(DecoderFuzzTest, PcapMatchesReference) {
  Pcg32 rng(2024);
  for (int it = 0; it < kSmallCases + kLargeCases; ++it) {
    const bool large = it >= kSmallCases;
    Layout l = large ? make_pcap(rng, 20000 + rng.bounded(20000),
                                 (1u << 20) + rng.bounded(2u << 20))
                     : make_pcap(rng, rng.bounded(24), 0);
    mutate_pcap(rng, l);
    write(l.bytes);
    const bool rebase = rng.chance(0.5);
    const auto internal = [](IPv4 ip) { return (ip.addr & 1) != 0; };
    const auto run = [&](auto decode) {
      return outcome_of([&](Outcome& o) {
        PcapReadStats s;
        o.trace = decode(file_, internal, &s, rebase);
        o.stats = {s.frames, s.packets, s.non_ip, s.non_tcp_udp, s.truncated};
      });
    };
    ASSERT_TRUE(same(run(ordered_ref_pcap), run(read_pcap)))
        << "case " << it << ", " << l.bytes.size() << " bytes";
  }
}

TEST_F(DecoderFuzzTest, NetflowV5MatchesReference) {
  Pcg32 rng(2025);
  for (int it = 0; it < kSmallCases + kLargeCases; ++it) {
    const bool large = it >= kSmallCases;
    Layout l = make_netflow(rng, large ? 1000 + rng.bounded(1000)
                                       : rng.bounded(6));
    mutate_netflow(rng, l);
    write(l.bytes);
    const auto run = [&](auto decode) {
      return outcome_of([&](Outcome& o) {
        NetflowV5ReadStats s;
        o.trace = decode(file_, &s);
        o.stats = {s.datagrams, s.records, s.packets_emitted, s.non_tcp,
                   s.flagless};
      });
    };
    ASSERT_TRUE(same(run(ref_nf5::read_netflow_v5), run(read_netflow_v5)))
        << "case " << it << ", " << l.bytes.size() << " bytes";
  }
}

TEST_F(DecoderFuzzTest, TraceIoMatchesReference) {
  Pcg32 rng(2026);
  for (int it = 0; it < kSmallCases + kLargeCases; ++it) {
    const bool large = it >= kSmallCases;
    Layout l = make_hft1(rng, large ? 45000 + rng.bounded(45000)
                                    : rng.bounded(12), file_);
    mutate_hft1(rng, l);
    write(l.bytes);
    const auto run = [&](auto decode) {
      return outcome_of([&](Outcome& o) { o.trace = decode(file_); });
    };
    ASSERT_TRUE(same(run(ref_hft1::read_trace), run(read_trace)))
        << "case " << it << ", " << l.bytes.size() << " bytes";
  }
}

}  // namespace
}  // namespace hifind
