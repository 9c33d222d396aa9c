// NetFlow v5 export codec.
//
// The paper's deployment consumed router NetFlow exports, not raw packets
// ("the router exports netflow data continuously which is recorded with
// sketches of HiFIND on the fly", Sec. 5.1). This codec reads files of
// concatenated NetFlow v5 datagrams (the classic 24-byte header + 48-byte
// records, all big-endian) and converts each TCP record carrying a SYN flag
// into the SYN / SYN-ACK packet events the detectors consume — a record
// whose OR'd tcp_flags contain SYN∧ACK was the responder's half of a
// handshake, SYN alone the initiator's. FIN flags emit a closing event so
// CPM's SYN−FIN statistic works from flow data too. The reader makes one
// sequential pass through a fixed read buffer and parses each datagram where
// it lies; a pipe works like a file.
//
// The writer exports a Trace as v5 datagrams (one record per SYN/SYN-ACK/FIN
// packet), letting synthetic scenarios feed any netflow-consuming tool.
#pragma once

#include <cstdint>
#include <string>

#include "packet/trace.hpp"

namespace hifind {

struct NetflowV5ReadStats {
  std::size_t datagrams{0};
  std::size_t records{0};
  std::size_t packets_emitted{0};  ///< SYN/SYN-ACK/FIN events produced
  std::size_t non_tcp{0};          ///< UDP/other records (passed through)
  std::size_t flagless{0};         ///< TCP records with no SYN/FIN bits
};

/// Reads a file of concatenated NetFlow v5 datagrams into a Trace.
/// Timestamps are absolute microseconds derived from each datagram's
/// unix_secs/sysuptime and the records' first-switched offsets, rebased so
/// the earliest record is t = 0. Throws std::runtime_error on structural
/// corruption (bad version, truncated datagram).
Trace read_netflow_v5(const std::string& path,
                      NetflowV5ReadStats* stats = nullptr);

/// Writes a trace as NetFlow v5 datagrams (up to 30 records each, the
/// conventional export packing). Only SYN, SYN-ACK and FIN packets produce
/// records (one each), plus one record per UDP packet; other TCP segments
/// carry no information the v5 flow summary would have kept.
void write_netflow_v5(const Trace& trace, const std::string& path);

}  // namespace hifind
