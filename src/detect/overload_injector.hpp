// Seeded overload fault-injection harness (the PR 2 FaultyChannel idea
// pointed at the INGEST path instead of the wire): drives an
// OverlappedPipeline through reproducible overload scenarios and reports
// what the overload layer did about them.
//
// Scenarios:
//   kBurstBeyondRings   — every post-warm-up interval carries a spoofed
//                         SYN flood sized at burst_ring_factor x the
//                         pipeline's ring capacity, the "4x line rate"
//                         case the shedder exists for.
//   kSlowConsumerEpochs — steady moderate traffic; pair it with
//                         OverlappedPipelineConfig::inject_epoch_stall_us
//                         to make every epoch slow and watch close_stall_us
//                         absorb (and bound) the backpressure.
//   kShedRestoreCycles  — alternating heavy/quiet interval pairs, so the
//                         shed level escalates under the bursts and the
//                         seal-time hysteresis walks it back down between
//                         them.
//
// The packet stream is a pure function of (config, seed): two runs with
// the same scenario against identically configured pipelines must produce
// identical shed decisions, coverage reports, and alerts — which is
// exactly what the overload determinism tests assert.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/overlapped.hpp"

namespace hifind {

struct OverloadScenarioConfig {
  enum class Kind : std::uint8_t {
    kBurstBeyondRings,
    kSlowConsumerEpochs,
    kShedRestoreCycles,
  };

  Kind kind{Kind::kBurstBeyondRings};
  std::uint64_t seed{0x0ddba11};
  std::uint64_t intervals{8};
  /// Ring capacity of the pipeline under test; attack volume is expressed
  /// as a multiple of it so "beyond ring capacity" stays true whatever the
  /// pipeline config says.
  std::size_t ring_capacity{ShardedRecorder::kDefaultRingCapacity};
  double burst_ring_factor{4.0};
  /// Benign completed handshakes per interval (keeps forecasters fed and
  /// gives the flood's victim a contrast population).
  int benign_handshakes{64};
  IPv4 victim{IPv4(129, 105, 9, 9)};
  std::uint16_t victim_port{80};
};

const char* overload_scenario_name(OverloadScenarioConfig::Kind kind);

/// What one interval of the scenario did and what it cost at the close.
struct OverloadIntervalStats {
  std::uint64_t interval{0};
  std::uint64_t attack_syns{0};         ///< spoofed flood SYNs offered
  std::uint64_t close_stall_us{0};      ///< stall accrued by THIS close
  std::uint32_t shed_level_after{0};    ///< shedder level after the seal
};

struct OverloadRun {
  std::vector<OverloadIntervalStats> intervals;
  /// Epoch results in interval order (pipeline drained before return).
  std::vector<IntervalResult> results;
  std::uint64_t total_close_stall_us{0};
};

class OverloadInjector {
 public:
  explicit OverloadInjector(const OverloadScenarioConfig& config);

  /// Attack SYNs interval `i` will offer — a pure function of the config,
  /// exposed so tests can assert the scenario shape independently.
  std::uint64_t attack_syns_for_interval(std::uint64_t i) const;

  /// Feeds the whole scenario through the pipeline, closing every interval,
  /// then drains the final epoch and collects the results.
  OverloadRun run(OverlappedPipeline& pipe);

  const OverloadScenarioConfig& config() const { return config_; }

 private:
  OverloadScenarioConfig config_;
};

}  // namespace hifind
