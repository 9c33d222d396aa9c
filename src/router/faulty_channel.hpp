// Deterministic fault-injection harness for the router -> central
// collection path.
//
// Routers push serialized bank frames in (`ship`); the collector pulls them
// out (`fetch`, CollectorState::FetchFn-compatible). Between the two, a
// per-router FaultPlan injects the failure modes a real deployment sees —
// every one driven by one seeded Pcg32, so a test run is reproducible
// bit-for-bit:
//
//   drop        the fetch attempt returns nothing (transient loss; the
//               frame stays available for retries)
//   corrupt     the frame is delivered with byte flips (HFB4's CRC-32C must
//               catch these)
//   delay       frames become fetchable N interval boundaries late
//               (stragglers; exercises late -> received vs deadline expiry)
//   duplicate   the previously delivered frame is replayed instead of the
//               requested one (exercises (router, interval) dedupe)
//   reorder     a neighboring interval's frame answers the request
//               (exercises header-directed re-filing)
//
// An outage window (`set_outage`) makes a router disappear entirely for a
// range of intervals — the hard failure the CoverageReport exists for.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace hifind {

struct FaultPlan {
  double drop_prob{0.0};
  double corrupt_prob{0.0};
  double duplicate_prob{0.0};
  double reorder_prob{0.0};
  std::uint64_t delay_intervals{0};
  std::size_t corrupt_byte_flips{3};  ///< byte flips per corrupted frame
};

class FaultyChannel {
 public:
  FaultyChannel(std::size_t num_routers, std::uint64_t seed);

  void set_plan(std::size_t router, const FaultPlan& plan);

  /// Router `router` goes dark for intervals [first, last]: every fetch for
  /// those shipments returns nothing, forever.
  void set_outage(std::size_t router, std::uint64_t first, std::uint64_t last);

  /// Router side: publish the frame for one interval.
  void ship(std::size_t router, std::uint64_t interval,
            std::vector<std::uint8_t> frame);

  /// Advances the channel clock (delay faults compare against it).
  void advance_to(std::uint64_t interval);

  /// Collector side; bind as CollectorState::FetchFn. Deterministic given
  /// the seed and the sequence of calls.
  std::optional<std::vector<std::uint8_t>> fetch(std::size_t router,
                                                 std::uint64_t interval);

  /// Attempts answered with nothing (drops, outages, not-yet-shipped).
  std::uint64_t fetches_suppressed() const { return fetches_suppressed_; }
  /// Frames delivered with injected byte flips.
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }

 private:
  struct PerRouter {
    FaultPlan plan;
    std::map<std::uint64_t, std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> last_delivered;
    std::uint64_t outage_first{1};
    std::uint64_t outage_last{0};  ///< empty range by default
  };

  std::vector<PerRouter> routers_;
  Pcg32 rng_;
  std::uint64_t now_{0};
  std::uint64_t fetches_suppressed_{0};
  std::uint64_t frames_corrupted_{0};
};

}  // namespace hifind
