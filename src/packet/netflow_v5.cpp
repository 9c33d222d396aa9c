#include "packet/netflow_v5.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "packet/file_reader.hpp"

namespace hifind {
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
void put16(std::vector<unsigned char>& out, std::uint16_t v) {
  out.push_back(static_cast<unsigned char>(v >> 8));
  out.push_back(static_cast<unsigned char>(v & 0xff));
}
void put32(std::vector<unsigned char>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v & 0xffff));
}

}  // namespace

Trace read_netflow_v5(const std::string& path, NetflowV5ReadStats* stats_out) {
  FileReader in(path);
  if (!in.is_open()) {
    throw std::runtime_error("cannot open netflow file: " + path);
  }

  NetflowV5ReadStats stats;
  // FIN events form a run of their own, every other event the main run,
  // each in file order. A record yields at most two events, so two per
  // record leaves room to merge the FINs in without growing.
  std::vector<PacketRecord> events, fins;
  if (const auto size = in.size()) events.reserve(2 * (*size / kRecordBytes));
  while (in.fill(kHeaderBytes) >= kHeaderBytes) {
    const unsigned char* h = in.data();
    const std::uint16_t version = be16(h);
    if (version != kVersion) {
      throw std::runtime_error("netflow v5: unexpected version " +
                               std::to_string(version) + " in " + path);
    }
    const std::uint16_t count = be16(h + 2);
    const std::uint32_t sysuptime_ms = be32(h + 4);
    const std::uint32_t unix_secs = be32(h + 8);
    if (count == 0 || count > kMaxRecordsPerDatagram) {
      throw std::runtime_error("netflow v5: implausible record count");
    }
    const std::size_t datagram_bytes =
        kHeaderBytes + std::size_t{count} * kRecordBytes;
    if (in.fill(datagram_bytes) < datagram_bytes) {
      throw std::runtime_error("netflow v5: truncated datagram in " + path);
    }
    ++stats.datagrams;

    const unsigned char* body = in.data() + kHeaderBytes;
    for (std::uint16_t i = 0; i < count; ++i) {
      const unsigned char* r = body + std::size_t{i} * kRecordBytes;
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
        events.push_back(p);
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
        events.push_back(syn);
        ++stats.packets_emitted;
        emitted = true;
      }
      if ((tcp_flags & kFin) != 0) {
        PacketRecord fin = p;
        fin.ts = p.ts + 1;  // close strictly after open
        fin.flags = kFin | kAck;
        fins.push_back(fin);
        ++stats.packets_emitted;
        emitted = true;
      }
      if (!emitted) ++stats.flagless;
    }
    in.consume(datagram_bytes);
  }
  if (in.available() != 0) {
    throw std::runtime_error("netflow v5: trailing bytes in " + path);
  }

  // Time-order, then rebase to the earliest event. SYN, SYN-ACK and UDP
  // events sit on whole milliseconds (unix_secs*10^6 + delta_ms*10^3, or
  // the clamped 0) and a FIN 1 us past one of them, so no event of one run
  // ties an event of the other. Stably sorting each run and merging the two
  // is therefore exactly the stable sort of all events in file order.
  const auto by_ts = [](const PacketRecord& a, const PacketRecord& b) {
    return a.ts < b.ts;
  };
  for (std::vector<PacketRecord>* run : {&events, &fins}) {
    if (!std::is_sorted(run->begin(), run->end(), by_ts)) {
      std::stable_sort(run->begin(), run->end(), by_ts);
    }
  }
  const auto main_run = static_cast<std::ptrdiff_t>(events.size());
  events.insert(events.end(), fins.begin(), fins.end());
  std::inplace_merge(events.begin(), events.begin() + main_run, events.end(),
                     by_ts);
  if (!events.empty()) {
    const Timestamp base = events.front().ts;
    for (PacketRecord& p : events) p.ts -= base;
  }
  if (stats_out != nullptr) *stats_out = stats;
  return Trace(std::move(events));
}

void write_netflow_v5(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open netflow file: " + path);

  // Gather exportable events (SYN / SYN-ACK / FIN / UDP).
  std::vector<const PacketRecord*> events;
  for (const auto& p : trace.packets()) {
    if (p.is_syn() || p.is_synack() || p.is_fin() ||
        p.proto == Protocol::kUdp) {
      events.push_back(&p);
    }
  }

  // Fixed epoch for the export stream; per-datagram sysuptime 1 hour.
  constexpr std::uint32_t kUptimeMs = 3600 * 1000;
  std::uint32_t sequence = 0;
  for (std::size_t start = 0; start < events.size();
       start += kMaxRecordsPerDatagram) {
    const auto count = static_cast<std::uint16_t>(
        std::min(kMaxRecordsPerDatagram, events.size() - start));
    // Anchor the datagram's export clock at the LAST record's second so
    // every record's first-switched offset stays within uptime.
    const Timestamp anchor_us = events[start + count - 1]->ts;
    const std::uint32_t unix_secs =
        static_cast<std::uint32_t>(anchor_us / 1000000) + 1;

    std::vector<unsigned char> out;
    out.reserve(kHeaderBytes + std::size_t{count} * kRecordBytes);
    put16(out, kVersion);
    put16(out, count);
    put32(out, kUptimeMs);
    put32(out, unix_secs);
    put32(out, 0);  // unix_nsecs
    put32(out, sequence);
    put16(out, 0);  // engine type/id
    put16(out, 0);  // sampling
    sequence += count;

    for (std::uint16_t i = 0; i < count; ++i) {
      const PacketRecord& p = *events[start + i];
      // first-switched (ms of uptime) s.t. header math inverts exactly:
      // us = unix_secs*1e6 + (first - uptime)*1000.
      const std::int64_t delta_ms =
          (static_cast<std::int64_t>(p.ts) -
           static_cast<std::int64_t>(unix_secs) * 1000000) /
          1000;
      const auto first_ms =
          static_cast<std::uint32_t>(static_cast<std::int64_t>(kUptimeMs) +
                                     delta_ms);
      put32(out, p.sip.addr);
      put32(out, p.dip.addr);
      put32(out, 0);  // nexthop
      put16(out, 0);  // input if
      put16(out, 0);  // output if
      put32(out, 1);  // dPkts
      put32(out, p.len);
      put32(out, first_ms);
      put32(out, first_ms);  // last
      put16(out, p.sport);
      put16(out, p.dport);
      out.push_back(0);  // pad
      out.push_back(p.proto == Protocol::kTcp ? p.flags : 0);
      out.push_back(static_cast<unsigned char>(p.proto));
      out.push_back(0);  // tos
      put16(out, 0);     // src_as
      put16(out, 0);     // dst_as
      out.push_back(0);  // src_mask
      out.push_back(0);  // dst_mask
      put16(out, 0);     // pad2
    }
    os.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  }
  if (!os) throw std::runtime_error("short write on netflow file: " + path);
}

}  // namespace hifind
