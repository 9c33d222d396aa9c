// In-memory packet traces and summary statistics.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "packet/packet.hpp"

namespace hifind {

/// Aggregate statistics over a trace, for sanity checks and reports.
struct TraceStats {
  std::size_t packets{0};
  std::size_t tcp_packets{0};
  std::size_t syn_packets{0};
  std::size_t synack_packets{0};
  std::size_t outbound_packets{0};
  std::uint64_t total_bytes{0};
  Timestamp first_ts{0};
  Timestamp last_ts{0};

  double duration_seconds() const {
    return last_ts >= first_ts
               ? static_cast<double>(last_ts - first_ts) / kMicrosPerSecond
               : 0.0;
  }
};

/// A packet trace ordered by timestamp. Generators append out of order and
/// call sort() once; consumers iterate in time order.
class Trace {
 public:
  Trace() = default;
  /// Takes packets already in time order.
  explicit Trace(std::vector<PacketRecord> packets)
      : packets_(std::move(packets)) {}

  void reserve(std::size_t n) { packets_.reserve(n); }
  void push_back(const PacketRecord& p) { packets_.push_back(p); }

  /// Appends all packets of another trace (used to merge attack traffic into
  /// background traffic). Does not re-sort.
  void append(const Trace& other);

  /// Stable-sorts by timestamp. Stability keeps a SYN before the SYN/ACK the
  /// generator emitted at the same microsecond.
  void sort();

  std::span<const PacketRecord> packets() const { return packets_; }
  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }
  const PacketRecord& operator[](std::size_t i) const { return packets_[i]; }

  TraceStats stats() const;

 private:
  std::vector<PacketRecord> packets_;
};

}  // namespace hifind
