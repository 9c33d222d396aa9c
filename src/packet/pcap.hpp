// Self-contained pcap (libpcap savefile) reader/writer.
//
// Lets HiFIND consume real captures (the paper's evaluation substrate is
// router traces; public traces ship as pcap) and export synthetic scenarios
// to standard tools — without a libpcap dependency. Scope:
//   - classic pcap format, microsecond (0xa1b2c3d4) and nanosecond
//     (0xa1b23c4d) magic, both byte orders;
//   - link types Ethernet (DLT_EN10MB = 1) and raw IPv4 (DLT_RAW = 101);
//   - IPv4 + TCP/UDP headers (options skipped via header-length fields);
//     anything else (ARP, IPv6, ICMP, truncated frames) is counted and
//     skipped, never an error — real captures are full of it.
//
// Direction: pcap has no in/out notion, so the reader derives
// PacketRecord::outbound from a caller-supplied predicate over the source
// address (e.g. NetworkModel::is_internal).
//
// The reader makes one sequential pass through a fixed read buffer: it
// parses each frame's headers where they lie and skips the rest of the
// body, so the capture is never copied into memory and a pipe works like a
// file. Frames larger than the buffer are fine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "packet/trace.hpp"

namespace hifind {

/// Read statistics: what was kept and what was skipped (and why).
struct PcapReadStats {
  std::size_t frames{0};          ///< frames in the file
  std::size_t packets{0};         ///< converted to PacketRecords
  std::size_t non_ip{0};          ///< non-IPv4 ethertype / version
  std::size_t non_tcp_udp{0};     ///< other IP protocols
  std::size_t truncated{0};       ///< snap length cut the headers off
};

/// Reads a pcap file into a Trace, in time order: frames stamped out of
/// order are stably sorted by timestamp (file order breaks ties).
///
/// @param is_internal  classifies a source address as inside the monitored
///                     edge network (sets PacketRecord::outbound).
/// @param rebase       when true (default) timestamps are rebased so the
///                     earliest kept frame is t = 0 — what you want for
///                     epoch-stamped captures; pass false to keep absolute
///                     microseconds (e.g. for files produced by write_pcap,
///                     preserving interval alignment exactly).
/// Throws std::runtime_error on malformed file structure; unparseable
/// individual frames are skipped and counted.
Trace read_pcap(const std::string& path,
                const std::function<bool(IPv4)>& is_internal,
                PcapReadStats* stats = nullptr, bool rebase = true);

/// Writes a trace as a microsecond-magic, raw-IPv4 (DLT_RAW) pcap file,
/// synthesizing minimal IPv4+TCP/UDP headers from each PacketRecord.
/// Throws std::runtime_error on I/O failure.
void write_pcap(const Trace& trace, const std::string& path);

}  // namespace hifind
