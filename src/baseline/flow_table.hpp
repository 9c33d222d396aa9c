// Exact flow-table detector — the paper's "non-sketch method" (Sec. 5.2).
//
// Runs the SAME three-step detection algorithm, EWMA forecasting, 2D
// classification, and Phase-3 heuristics as HifindDetector, but over exact
// per-key hash tables instead of sketches. Two purposes:
//
//  1. Accuracy reference: the paper reports that sketches detect exactly the
//     same attacks as complete per-flow state; our Table 4/5.2 benches verify
//     that claim on synthetic traces by diffing this detector's alerts
//     against the sketch detector's.
//  2. Memory contrast: memory_bytes() grows with the number of live flows —
//     under a spoofed flood it balloons (Table 9's "complete info" row),
//     which is precisely the DoS vulnerability sketches remove.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "detect/alerts.hpp"
#include "detect/fp_filters.hpp"
#include "detect/hifind.hpp"
#include "packet/packet.hpp"

namespace hifind {

/// Exact analogue of HifindDetector. Same config semantics; thresholds,
/// phases and filter parameters are shared via HifindDetectorConfig.
class FlowTableDetector {
 public:
  explicit FlowTableDetector(const HifindDetectorConfig& config);

  /// Feeds one packet of the current interval.
  void observe(const PacketRecord& p);

  /// Closes the interval and runs the three phases.
  IntervalResult end_interval(std::uint64_t interval);

  /// Current resident memory of all per-flow state (Table 9 row).
  std::size_t memory_bytes() const;

  void reset();

 private:
  using CountMap = std::unordered_map<std::uint64_t, double>;
  /// key -> secondary-value -> un-responded count (exact 2D distribution).
  using SpreadMap =
      std::unordered_map<std::uint64_t,
                         std::unordered_map<std::uint32_t, double>>;

  std::vector<Alert> phase1(std::uint64_t interval);
  std::vector<Alert> phase2(const std::vector<Alert>& alerts) const;
  std::vector<Alert> phase3(const std::vector<Alert>& alerts);

  /// EWMA per key: error = current - forecast; returns keys above threshold.
  std::vector<HeavyKey> detect_changes(const CountMap& current,
                                       CountMap& forecast, bool primed) const;

  /// Exact concentration test mirroring TwoDSketch::classify.
  bool concentrated(const SpreadMap& spread, std::uint64_t key) const;

  HifindDetectorConfig config_;
  bool primed_{false};

  // Per-interval exact state (cleared each interval).
  CountMap cur_sip_dport_;
  CountMap cur_dip_dport_;
  CountMap cur_sip_dip_;
  CountMap cur_syn_dip_dport_;  ///< #SYN only (ratio heuristic)
  SpreadMap spread_sipdip_dport_;
  SpreadMap spread_sipdport_dip_;

  /// Step-2 provenance (see HifindDetector::flooding_sip_victim_).
  std::unordered_map<std::uint32_t, std::uint32_t> flooding_sip_victim_;

  // Cross-interval state.
  CountMap fc_sip_dport_;
  CountMap fc_dip_dport_;
  CountMap fc_sip_dip_;
  CountMap fc_syn_dip_dport_;  ///< #SYN forecast (SYN-surge heuristic)
  std::unordered_set<std::uint64_t> synack_history_;  ///< live services
  RatioFilter ratio_filter_;
  PersistenceFilter persistence_filter_;
};

}  // namespace hifind
