#include "packet/pcap.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "packet/file_reader.hpp"

namespace hifind {
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

/// A 32-bit header field in the file's byte order.
std::uint32_t file_u32(const unsigned char* p, bool swapped) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return swapped ? __builtin_bswap32(v) : v;
}

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

/// Parses one frame's link and IP+transport headers. Reads no more than the
/// first link + 60 + 14 bytes of the frame (see read_pcap).
bool parse_frame(const unsigned char* frame, std::size_t incl, bool ethernet,
                 PacketRecord& rec, PcapReadStats& stats) {
  if (!ethernet) return parse_ip(frame, incl, rec, stats);
  if (incl < 14) {
    ++stats.truncated;
    return false;
  }
  if (be16(frame + 12) != kEthertypeIpv4) {
    ++stats.non_ip;
    return false;
  }
  return parse_ip(frame + 14, incl - 14, rec, stats);
}

}  // namespace

Trace read_pcap(const std::string& path,
                const std::function<bool(IPv4)>& is_internal,
                PcapReadStats* stats_out, bool rebase) {
  FileReader in(path);
  if (!in.is_open()) throw std::runtime_error("cannot open pcap file: " + path);
  if (in.fill(24) < 24) throw std::runtime_error("pcap too short: " + path);

  std::uint32_t magic;
  std::memcpy(&magic, in.data(), 4);
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
  const std::uint32_t linktype = file_u32(in.data() + 20, swapped);
  std::size_t link_skip;
  if (linktype == kLinkEthernet) {
    link_skip = 14;
  } else if (linktype == kLinkRawIp) {
    link_skip = 0;
  } else {
    throw std::runtime_error("unsupported pcap link type " +
                             std::to_string(linktype) + ": " + path);
  }
  in.consume(24);

  PcapReadStats stats;
  std::vector<PacketRecord> packets;
  // A kept frame costs at least its 16-byte record header, the link header
  // and 20 + 8 bytes of IPv4 + UDP, which bounds the packet count. Capacity
  // the frames never reach is never touched, so it is not resident.
  if (const auto size = in.size(); size && *size > 24) {
    packets.reserve((*size - 24) / (16 + link_skip + 28));
  }
  // The headers parse_frame reads lie in the link header, an IPv4 header
  // of at most 60 bytes and the first 14 bytes of TCP; the rest of each
  // frame is skipped unread.
  const std::size_t head_window = link_skip + 60 + 14;
  bool in_order = true;
  Timestamp last_ts = 0;
  while (in.fill(16) >= 16) {
    const std::uint32_t ts_sec = file_u32(in.data(), swapped);
    const std::uint32_t ts_frac = file_u32(in.data() + 4, swapped);
    const std::uint32_t incl = file_u32(in.data() + 8, swapped);
    in.consume(16);
    const std::size_t head = std::min<std::size_t>(incl, head_window);
    if (in.fill(head) < head) {
      throw std::runtime_error("truncated pcap frame body: " + path);
    }
    ++stats.frames;
    PacketRecord rec;
    const bool kept = parse_frame(in.data(), incl,
                                  linktype == kLinkEthernet, rec, stats);
    if (!in.skip(incl)) {
      throw std::runtime_error("truncated pcap frame body: " + path);
    }
    if (!kept) continue;

    rec.ts =
        std::uint64_t{ts_sec} * 1000000 + (nanos ? ts_frac / 1000 : ts_frac);
    if (rec.ts < last_ts) in_order = false;
    last_ts = rec.ts;
    rec.outbound = is_internal ? is_internal(rec.sip) : false;
    packets.push_back(rec);
    ++stats.packets;
  }
  // Captures are not guaranteed to be in time order (multi-queue capture,
  // clock steps). Order them the way the generator and the NetFlow reader
  // do, then rebase to the earliest frame, so no timestamp can wrap below
  // the base.
  if (!in_order) {
    std::stable_sort(packets.begin(), packets.end(),
                     [](const PacketRecord& a, const PacketRecord& b) {
                       return a.ts < b.ts;
                     });
  }
  if (rebase && !packets.empty()) {
    const Timestamp base = packets.front().ts;
    for (PacketRecord& p : packets) p.ts -= base;
  }
  if (stats_out != nullptr) *stats_out = stats;
  return Trace(std::move(packets));
}

void write_pcap(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open pcap for write: " + path);

  auto put32 = [&](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), 4);
  };
  auto put16 = [&](std::uint16_t v) {
    os.write(reinterpret_cast<const char*>(&v), 2);
  };
  // Global header, host byte order with standard micros magic.
  put32(kMagicMicros);
  put16(2);   // version major
  put16(4);   // version minor
  put32(0);   // thiszone
  put32(0);   // sigfigs
  put32(65535);  // snaplen
  put32(kLinkRawIp);

  for (const auto& p : trace.packets()) {
    const bool tcp = p.proto == Protocol::kTcp;
    const std::size_t transport = tcp ? 20 : 8;
    const std::size_t total = 20 + transport;

    put32(static_cast<std::uint32_t>(p.ts / 1000000));
    put32(static_cast<std::uint32_t>(p.ts % 1000000));
    put32(static_cast<std::uint32_t>(total));  // incl_len
    put32(std::max<std::uint32_t>(static_cast<std::uint32_t>(total), p.len));

    unsigned char hdr[40] = {};
    hdr[0] = 0x45;  // IPv4, IHL 5
    hdr[2] = static_cast<unsigned char>(total >> 8);
    hdr[3] = static_cast<unsigned char>(total & 0xff);
    hdr[8] = 64;  // TTL
    hdr[9] = tcp ? kProtoTcp : kProtoUdp;
    hdr[12] = static_cast<unsigned char>(p.sip.addr >> 24);
    hdr[13] = static_cast<unsigned char>(p.sip.addr >> 16);
    hdr[14] = static_cast<unsigned char>(p.sip.addr >> 8);
    hdr[15] = static_cast<unsigned char>(p.sip.addr);
    hdr[16] = static_cast<unsigned char>(p.dip.addr >> 24);
    hdr[17] = static_cast<unsigned char>(p.dip.addr >> 16);
    hdr[18] = static_cast<unsigned char>(p.dip.addr >> 8);
    hdr[19] = static_cast<unsigned char>(p.dip.addr);
    unsigned char* t = hdr + 20;
    t[0] = static_cast<unsigned char>(p.sport >> 8);
    t[1] = static_cast<unsigned char>(p.sport & 0xff);
    t[2] = static_cast<unsigned char>(p.dport >> 8);
    t[3] = static_cast<unsigned char>(p.dport & 0xff);
    if (tcp) {
      t[12] = 5 << 4;  // data offset 5 words
      t[13] = p.flags;
    } else {
      t[4] = 0;
      t[5] = 8;  // UDP length
    }
    os.write(reinterpret_cast<const char*>(hdr),
             static_cast<std::streamsize>(total));
  }
  if (!os) throw std::runtime_error("short write on pcap: " + path);
}

}  // namespace hifind
