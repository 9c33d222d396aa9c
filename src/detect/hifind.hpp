// HifindDetector: the paper's three-step detection algorithm plus the
// Phase-2 (2D-sketch classification) and Phase-3 (SYN-flood heuristics)
// false-positive reduction stages.
//
// Usage per interval:
//   SketchBank bank(bank_config);
//   for (packet : interval) bank.record(packet);
//   IntervalResult r = detector.process(bank, interval_index);
//   bank.clear();
//
// The detector holds all state that outlives an interval (forecast and error
// grids, the lifetime SYN/ACK history, the persistence filter's run lengths),
// each grid read through the bank sketch it came from; the bank holds one
// interval's counters. Splitting the two is what makes aggregated
// multi-router detection work: the central site combines per-router banks
// into one and feeds it to a single detector, and — by sketch linearity —
// obtains exactly the alerts a single monitor seeing all traffic would have
// produced.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/task_pool.hpp"
#include "detect/alerts.hpp"
#include "detect/fp_filters.hpp"
#include "detect/sketch_bank.hpp"
#include "forecast/forecaster.hpp"
#include "sketch/sketch_backend.hpp"

namespace hifind {

/// Hard close-time latency budget: bounds one epoch's reverse-inference
/// burst so an attack-heavy interval degrades deterministically instead of
/// stalling the detector for seconds (the paper's DoS-resilience claim,
/// applied to the detector itself).
///
/// The deadline converts to a SEARCH-WORK budget via a fixed calibration
/// constant, and enforcement meters search steps — never wall time — so the
/// truncated alert set is a pure function of (bank, config): identical at
/// any epoch thread count or host speed. When no cap trips,
/// alerts are bit-identical to an unbudgeted run (IntervalResult::epoch
/// reports which case occurred).
struct EpochBudget {
  /// Per-epoch deadline. 0 disables budget mode entirely.
  double deadline_ms{0.0};
  /// Deterministic calibration from deadline to search work: work units the
  /// inference search retires per millisecond (one unit ~ one heavy bucket
  /// in a DFS node's consistent slices). Deliberately a config constant
  /// rather than a measured rate — see the determinism contract above.
  /// Calibrate per deployment from BENCH_detect_epoch.json's
  /// `budget_work_rate` line.
  double work_units_per_ms{25000.0};
  /// Stage-level degradation: in budget mode each inference also caps its
  /// per-stage heavy buckets to this top-N (largest value, bucket-index
  /// tie-break), bounding the search tree before the work meter has to and
  /// biasing a truncated epoch toward the LARGEST anomalies. 0 = off.
  std::size_t max_heavy_per_stage{128};

  bool enabled() const { return deadline_ms > 0.0; }
  /// Total work budget for one epoch, split evenly over the 3 inferences.
  std::size_t work_budget() const {
    return enabled()
               ? static_cast<std::size_t>(deadline_ms * work_units_per_ms)
               : 0;
  }
};

/// Detection-stage tuning. Defaults follow paper Sec. 5.1 where stated.
struct HifindDetectorConfig {
  std::uint32_t interval_seconds{60};
  /// Threshold: un-responded SYNs *per second* of interval (paper: 1/s).
  double syn_rate_threshold{1.0};

  /// EWMA forecast weight of the newest interval (paper Eq. 1), in (0,1].
  double ewma_alpha{0.5};

  InferenceOptions inference{};

  // Phase 2: 2D-sketch column-concentration parameters (paper: 5/64, 0.8).
  bool enable_phase2{true};
  std::size_t twod_top_p{5};
  double twod_phi{0.8};

  // Phase 3: SYN-flood FP heuristics (paper Sec. 3.4).
  bool enable_phase3{true};
  double min_syn_ratio{3.0};
  std::uint32_t min_persist_intervals{2};
  double min_service_history{0.5};
  /// SYN-surge heuristic: a real flood RAISES the victim's #SYN arrival
  /// rate, while a server failure/congestion leaves arrivals normal and
  /// merely unanswered. Keep a flood alert only if the OS({DIP,Dport},#SYN)
  /// forecast error is at least this fraction of the alert magnitude.
  double min_syn_surge_fraction{0.5};

  /// Worker threads for the interval-close epoch: the forecaster steps run
  /// as parallel tasks, and so do the first-byte subtrees of every
  /// unbudgeted reversible search (one subtree drainer per worker). 1 =
  /// serial (inline, no worker threads); 0 = auto: min(hardware threads,
  /// 8). Under the double-buffered pipeline (detect/overlapped.hpp) the
  /// same pool also merges the shards, and the epoch overlaps the next
  /// interval's recording, so size this against the recorder's thread
  /// budget rather than assuming exclusive use of the host. Alerts are
  /// bit-identical across thread counts: tasks write disjoint slots, joins
  /// happen in a fixed order (subtree outputs in byte order), and the
  /// kernels are bit-exact on every backend.
  std::size_t epoch_threads{0};

  /// Close-time latency budget; disabled by default (run to completion).
  EpochBudget budget{};

  /// Alert threshold for one interval, in un-responded SYNs.
  double interval_threshold() const {
    return syn_rate_threshold * interval_seconds;
  }
};

class HifindDetector {
 public:
  /// Forecast state is allocated lazily from the first bank's shape, so the
  /// detector needs no advance knowledge of the bank configuration.
  explicit HifindDetector(const HifindDetectorConfig& config);

  /// Runs detection on one interval's (possibly combined) bank.
  /// The first interval only primes the forecasters and returns no alerts.
  IntervalResult process(const SketchBank& bank, std::uint64_t interval);

  /// As above, stamping the result with the collection-coverage report the
  /// aggregation layer observed for this interval. A degraded report with
  /// coverage fraction f > 0 rescales the bank by 1/f as it is read: every
  /// counter and stage sum the detector reads is (1/f) × counter, one
  /// rounding. Sketch linearity makes that an unbiased full-traffic estimate,
  /// which keeps the forecasters' time series on a consistent scale across
  /// degraded and clean intervals (see router/collector.hpp); no scaled
  /// bank copy is built.
  IntervalResult process(const SketchBank& bank, std::uint64_t interval,
                         CoverageReport coverage);

  /// Drops all time-series state (new trace): forecasts, the lifetime
  /// SYN/ACK history and the persistence runs.
  void reset();

  const HifindDetectorConfig& config() const { return config_; }

  /// Lifetime #SYN/ACK per {DIP,Dport}: the sum of every processed bank's
  /// SYNACK grid, read through SketchBank::synack_dip_dport()'s hashing.
  /// nullptr before the first process() and after reset().
  const CounterGrid* service_history() const {
    return lifetime_ ? &*lifetime_ : nullptr;
  }

  /// The epoch task pool, sized by epoch_threads and created on first use
  /// (a detector that never processes an interval spawns no threads). A
  /// driver may run its own tasks on it between process() calls, from the
  /// thread that calls process(): the overlapped pipeline merges its shards
  /// here.
  TaskPool& pool();

 private:
  std::vector<Alert> phase1(std::uint64_t interval,
                            const std::vector<HeavyKey>& keys_dip_dport,
                            const std::vector<HeavyKey>& keys_sip_dip,
                            const std::vector<HeavyKey>& keys_sip_dport);
  std::vector<Alert> phase2(const SketchBank& bank, double scale,
                            const std::vector<Alert>& alerts) const;
  std::vector<Alert> phase3(const SketchBank& bank, double scale,
                            const CounterGrid* os_error,
                            const std::vector<Alert>& alerts);
  /// lifetime_ += the bank's SYN/ACK grid; throws std::invalid_argument if
  /// the sketch has another shape or seed than the first bank's.
  void fold_history(const KarySketch& synack);

  HifindDetectorConfig config_;
  std::unique_ptr<TaskPool> pool_;  ///< see pool()
  /// Per-RS heavy-bucket candidates from the fused forecaster pass; filled
  /// by the RS forecaster steps in stage A, consumed (moved out) by
  /// inference in stage B of the same interval.
  StageBuckets hb_sip_dport_;
  StageBuckets hb_dip_dport_;
  StageBuckets hb_sip_dip_;
  /// Stage-B reversal engines and their per-interval results (slot order:
  /// dip_dport, sip_dip, sip_dport). Long-lived so the search workspaces —
  /// DFS levels or compact extraction buffers, per the bank's backend —
  /// reach an allocation-free steady state.
  std::array<ReverseEngine, 3> inference_;
  std::array<InferenceResult, 3> inference_result_;
  /// One DFS workspace per subtree drainer (one per pool worker), reused
  /// across intervals.
  std::vector<StreamingInference::Walker> walkers_;
  /// Step-2 provenance for the current interval: the victim DIP that put
  /// each source into FLOODING_SIP_SET. Phase 3 uses it to drop non-spoofed
  /// flooding alerts whose victim's own flood alert was filtered out (e.g.
  /// as a misconfiguration), keeping the two alert families consistent.
  std::unordered_map<std::uint32_t, std::uint32_t> flooding_sip_victim_;
  Forecaster<InvertibleSketch> f_sip_dport_;
  Forecaster<InvertibleSketch> f_dip_dport_;
  Forecaster<InvertibleSketch> f_sip_dip_;
  Forecaster<KarySketch> fv_sip_dport_;
  Forecaster<KarySketch> fv_dip_dport_;
  Forecaster<KarySketch> fv_sip_dip_;
  Forecaster<KarySketch> f_os_;
  /// service_history(); folded in on every process(), warm-up included.
  std::optional<CounterGrid> lifetime_;
  KarySketchConfig lifetime_config_{};
  RatioFilter ratio_filter_;
  PersistenceFilter persistence_filter_;
};

}  // namespace hifind
