// False-positive reduction heuristics for SYN-flooding alerts (paper
// Sec. 3.4). Two independent, individually-testable filters:
//
//  * RatioFilter — bursty congestion or server brown-outs leave *some*
//    SYN/ACKs flowing; a flood leaves (almost) none. Requires
//    #SYN >= min_ratio * #SYN/ACK for the victim key, reconstructed from the
//    OS({DIP,Dport}, #SYN) sketch and the RS #SYN−#SYN/ACK estimate.
//  * PersistenceFilter — "attacks may last some time": the same victim key
//    must stay anomalous for at least `min_intervals` consecutive intervals.
//
// The misconfiguration heuristic of Sec. 3.4 (a real DoS targets a service
// that has answered someone) is not a filter class: HifindDetector::phase3
// reads the bank's lifetime #SYN/ACK history sketch
// (SketchBank::synack_history) against `min_service_history` directly.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace hifind {

/// SYN-to-SYN/ACK ratio test for one victim key.
class RatioFilter {
 public:
  /// @param min_ratio  keep the alert only if syn >= min_ratio * synack.
  explicit RatioFilter(double min_ratio = 3.0) : min_ratio_(min_ratio) {}

  /// @param syn_count     estimated #SYN to the victim this interval.
  /// @param unresponded   estimated #SYN − #SYN/ACK (the alert magnitude).
  bool keep(double syn_count, double unresponded) const {
    const double synack = syn_count - unresponded;
    if (synack <= 0) return true;  // nothing answered: flood-consistent
    return syn_count >= min_ratio_ * synack;
  }

 private:
  double min_ratio_;
};

/// Consecutive-interval persistence test, keyed by packed victim key.
class PersistenceFilter {
 public:
  explicit PersistenceFilter(std::uint32_t min_intervals = 2)
      : min_intervals_(min_intervals) {}

  /// Reports the keys anomalous *this* interval; returns, via keep(),
  /// whether each has now persisted long enough. Call once per interval.
  void begin_interval();

  /// Marks `key` anomalous this interval and returns true if its run length
  /// (including this interval) reaches the minimum.
  bool observe(std::uint64_t key);

  /// Drops run-length state for keys not observed this interval.
  void end_interval();

  std::uint32_t min_intervals() const { return min_intervals_; }

 private:
  std::uint32_t min_intervals_;
  std::unordered_map<std::uint64_t, std::uint32_t> runs_;
  std::unordered_map<std::uint64_t, std::uint32_t> current_;
};

}  // namespace hifind
