// Resilient collection layer between edge routers and the central detector.
//
// The paper's multi-router story (Sec. 3.1 / Sec. 5.3.2) assumes every
// per-router bank reaches the central site intact and on time. A production
// edge deployment cannot: frames get dropped, delayed past the interval
// boundary, corrupted in flight, duplicated and reordered. This layer keeps
// the central detector running through all of that:
//
//  - CollectorState tracks each (router, interval) shipment through
//    pending -> received | late -> missing, pulling frames through a
//    caller-supplied fetch callback with bounded per-poll retries,
//    deduplicating replays, routing reordered frames to the interval they
//    belong to, and quarantining a sender after K consecutive bad frames
//    (CRC failures, header mismatches, shape mismatches).
//  - When an interval's deadline expires, it finalizes anyway: the received
//    banks are COMBINEd into a partial sum and reported together with a
//    CoverageReport naming exactly which routers made it.
//  - ResilientAggregator feeds each finalized interval to one
//    HifindDetector, which reads a partial sum rescaled by 1/coverage. Sketch
//    linearity makes the rescaled bank an unbiased estimate of the
//    full-traffic bank under the router layer's uniform per-packet split,
//    so thresholds and forecaster state need no special-casing — and every
//    IntervalResult carries the coverage report so alert consumers can
//    discount detections made under partial coverage.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "detect/alerts.hpp"
#include "detect/hifind.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind {

/// Lifecycle of one (router, interval) shipment.
enum class ShipmentStatus : std::uint8_t {
  kPending,      ///< due, not yet fetched successfully
  kReceived,     ///< decoded, deduplicated, shape-checked; in the sum
  kLate,         ///< missed at least one poll; still inside the deadline
  kMissing,      ///< deadline expired without a good frame
  kQuarantined,  ///< sender quarantined for repeated bad frames
};

struct CollectorConfig {
  std::size_t num_routers{1};
  /// Fetch attempts per outstanding shipment per poll (bounded retry: a
  /// transiently lossy pull can succeed on the immediate retry without
  /// waiting a full interval).
  std::size_t fetch_attempts_per_poll{2};
  /// Extra polls (interval boundaries) an incomplete interval waits for
  /// stragglers before finalizing on the partial sum. 0 = finalize at its
  /// own boundary, never wait.
  std::uint64_t deadline_polls{1};
  /// Consecutive bad frames (corrupt, mis-addressed, wrong shape) from one
  /// router before it is quarantined and excluded from collection.
  std::size_t quarantine_after{3};
};

/// Collection-path observability; every count is cumulative.
struct CollectorStats {
  std::uint64_t fetch_attempts{0};
  std::uint64_t fetch_retries{0};      ///< attempts beyond the first per poll
  std::uint64_t frames_received{0};
  std::uint64_t frames_corrupt{0};     ///< WireError on decode
  std::uint64_t frames_mismatched{0};  ///< header router != fetch address
  std::uint64_t frames_wrong_shape{0};  ///< bank config != expected config
  std::uint64_t frames_duplicate{0};   ///< replay of an already-received one
  std::uint64_t frames_reordered{0};   ///< delivered to a different pending
                                       ///< interval than asked for
  std::uint64_t frames_stale{0};       ///< for an already-finalized interval
  std::uint64_t intervals_degraded{0};
  std::size_t routers_quarantined{0};
};

/// One interval the collector has closed out, in order.
struct FinalizedInterval {
  std::uint64_t interval{0};
  CoverageReport coverage;
  /// Clean COMBINE (unit-weight sum) of exactly the received banks — the
  /// partial sum detection runs on (after 1/coverage rescale). Kept
  /// unscaled so callers can bit-compare it against the received banks.
  SketchBank partial_sum;
  /// The received banks themselves, keyed by router id.
  std::vector<std::pair<std::uint32_t, SketchBank>> banks;
};

class CollectorState {
 public:
  /// Pull callback: return the (possibly faulty) frame bytes for one
  /// (router, interval) shipment, or nullopt if nothing is available yet.
  using FetchFn = std::function<std::optional<std::vector<std::uint8_t>>(
      std::size_t router, std::uint64_t interval)>;

  /// @param bank_config  the agreed bank shape; frames whose embedded config
  ///                     differs are rejected as bad (they would poison the
  ///                     COMBINE), and all-missing intervals still produce a
  ///                     well-shaped zero partial sum.
  CollectorState(const CollectorConfig& config, SketchBankConfig bank_config,
                 FetchFn fetch);

  /// Called at the boundary of `interval` (monotonically increasing):
  /// registers shipments for every interval up to and including it, polls
  /// all outstanding shipments (bounded retries, dedupe, quarantine), and
  /// returns every interval that finalized — complete, or past its deadline
  /// — in interval order.
  std::vector<FinalizedInterval> poll(std::uint64_t interval);

  /// Status of one shipment: outstanding intervals answer live state;
  /// recently finalized intervals answer from a bounded history window.
  ShipmentStatus status(std::size_t router, std::uint64_t interval) const;

  bool quarantined(std::size_t router) const {
    return quarantined_.at(router);
  }

  const CollectorStats& stats() const { return stats_; }
  const CollectorConfig& config() const { return config_; }

 private:
  struct Shipment {
    ShipmentStatus status{ShipmentStatus::kPending};
    std::optional<SketchBank> bank;
  };
  struct PendingInterval {
    std::uint64_t interval{0};
    std::uint64_t first_poll{0};  ///< poll at which the interval became due
    std::vector<Shipment> shipments;
  };

  PendingInterval* find_pending(std::uint64_t interval);
  void fetch_into(PendingInterval& due, std::size_t router);
  /// Files one decoded frame under the interval its header names (reorder
  /// handling); returns true if it landed as a new reception anywhere.
  bool accept_frame(PendingInterval& asked, std::size_t router,
                    std::uint32_t header_router, std::uint64_t header_interval,
                    SketchBank&& bank);
  void note_bad_frame(std::size_t router);
  FinalizedInterval finalize(PendingInterval& p);

  CollectorConfig config_;
  SketchBankConfig bank_config_;
  FetchFn fetch_;
  std::deque<PendingInterval> pending_;  ///< in interval order
  std::vector<std::size_t> consecutive_bad_;
  std::vector<bool> quarantined_;
  std::uint64_t next_due_{0};
  bool started_{false};
  std::uint64_t polls_{0};
  /// Status history of finalized intervals, bounded to the last
  /// kStatusHistory intervals (observability, not correctness).
  static constexpr std::size_t kStatusHistory = 64;
  std::map<std::uint64_t, std::vector<ShipmentStatus>> finalized_status_;
  CollectorStats stats_;
};

/// CollectorState wired to one central HifindDetector: the DoS-resilient
/// replacement for DistributedMonitor::end_interval's perfect-network
/// COMBINE.
class ResilientAggregator {
 public:
  ResilientAggregator(const CollectorConfig& collector_config,
                      const SketchBankConfig& bank_config,
                      const HifindDetectorConfig& detector_config,
                      CollectorState::FetchFn fetch);

  /// Interval boundary: polls shipments and runs detection on every interval
  /// that finalized, in order. Partial sums are read rescaled by 1/coverage
  /// (HifindDetector::process with the degraded coverage report); a
  /// zero-coverage interval skips the detector entirely (feeding it an empty
  /// bank would drag the forecasters toward zero) and yields an alert-free,
  /// degraded-flagged result.
  std::vector<IntervalResult> end_interval(std::uint64_t interval);

  const CollectorState& collector() const { return collector_; }

 private:
  CollectorState collector_;
  SketchBankConfig bank_config_;
  HifindDetector detector_;
};

}  // namespace hifind
