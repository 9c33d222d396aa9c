// OverlappedPipeline: double-buffered sharded recording + background
// detection.
//
// The serial pipeline (record -> process -> clear) blocks ingest for the
// whole detection epoch at every interval close; on attack-heavy intervals
// the reverse-inference burst makes that a multi-second stall — exactly the
// window an adversary wants the monitor blind in. This pipeline removes the
// epoch from the ingest path with two recording GENERATIONS, each a set of N
// shard replicas:
//
//   close_interval():
//     1. wait for the PREVIOUS epoch to finish (normally instant — an epoch
//        has a whole interval, e.g. 60 s, to complete; time spent here is
//        backpressure and is surfaced via close_stall_us()),
//     2. drain the recorder (all of interval N applied to generation A),
//     3. rebind the recorder to generation B — ingest resumes immediately,
//     4. hand generation A to the dedicated epoch thread, which runs the
//        detection epoch in the background while interval N+1 records into B.
//
// Recording is shared-nothing (paper Sec. 5.5.3 multi-processor recording
// via Sec. 3.1 COMBINE linearity): each of the N record threads owns a FULL
// private SketchBank replica and applies its partition of the op stream
// with plain non-atomic stores (ShardedRecorder). The seal is drain +
// rebind only — no clear, no history copy on the ingest path. The
// background epoch REDUCES the sealed generation by COMBINE linearity IN
// PLACE into its first shard (SketchBank::merge_shards with the destination
// as term 0, fanned out per grid on the detector's epoch pool): shards
// 1..N-1 are added into shard 0, so with one record thread no counter moves.
// The same pass adds every shard's SYN/ACK-history delta, in shard order,
// into the pipeline's cumulative history (one epoch-thread-owned
// KarySketch; the shards hold per-interval state only). Shard 0 then
// presents that history (SketchBank::swap_history, O(1)) while
// HifindDetector::process runs on it. The result is published before the
// generation is reset: the whole-bank wipe comes after the alert, not
// before it, and the epoch counts as busy until it is done, so the next
// seal never rebinds into stale counters. Merge time and per-shard
// occupancy are surfaced in each result's EpochReport.
//
// The epoch runs on its own thread (not a detector-pool worker) so the
// detector's wait_idle() joins inside process() can never deadlock against
// the coordinator. The pipeline has ONE task pool, the detector's
// (HifindDetector::pool(), sized by epoch_threads): the epoch thread runs
// the shard reduction on it, and merge_shards() returns only once the pool
// is idle, so process() then has the whole pool for the forecaster steps
// and the reversal searches.
//
// Overload control (the DoS-resilience story for the monitor ITSELF):
//
//   - A LoadShedder sits in front of the recorder on the ingest thread.
//     Every recordable op passes its admit test BEFORE touching a ring;
//     once the interval's recording budget is exceeded, ops are
//     hash-sampled at 2^-k rates and admitted ops carry inline 2^k weights,
//     so sketch counters stay unbiased and shard merges stay bit-exact.
//     Per-interval shedding coverage is sealed into the interval's
//     CoverageReport (sample_coverage et al.), composing with — never
//     double-applying — the collector's 1/coverage bank rescale.
//   - An ActiveFlowTable tracks EXACT per-flow counters for the keys the
//     previous epoch flagged, fed pre-shed on the ingest thread; the epoch
//     thread refines each interval's final alerts against the sealed
//     evidence (IntervalResult::refined / RefinementReport), confirming
//     real attacks and killing collision phantoms with per-flow proof.
//   - Ring backpressure telemetry (per-shard full-ring episodes, drain
//     yields) rides each interval's EpochReport, and
//     inject_epoch_stall_us gives tests/benches a deterministic
//     slow-consumer fault to provoke all of the above
//     (detect/overload_injector.hpp drives the scenarios).
//
// Determinism: every stage of the epoch is bit-exact, the seal is exact, and
// the shard sum plus the pipeline's retained history IS the state of one
// serially reused bank (merge_shards' bit-identity contract) — so the alert
// stream is bit-identical to the serial pipeline on the same packet stream,
// at every shard count. Tested.
//
// Usage:
//   OverlappedPipeline pipe(cfg);
//   for (interval) {
//     for (packet : interval) pipe.offer(packet);
//     pipe.close_interval();          // blocks ~drain time, not epoch time
//   }
//   pipe.wait_epoch_idle();
//   for (IntervalResult& r : pipe.take_results()) ...
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "detect/flow_refinery.hpp"
#include "detect/hifind.hpp"
#include "detect/load_shedder.hpp"
#include "detect/sharded_recorder.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind {

struct OverlappedPipelineConfig {
  SketchBankConfig bank{};
  HifindDetectorConfig detector{};
  /// Recording worker threads, one full bank replica each per generation
  /// (2 * record_threads shard banks), clamped to
  /// [1, SketchBank::kMaxShards]. The epoch thread and the detector's epoch
  /// pool run CONCURRENTLY with these during an interval, so budget the sum
  /// against the host, not each piece separately.
  unsigned record_threads{2};
  std::size_t ring_capacity{ShardedRecorder::kDefaultRingCapacity};
  /// Overload shedding in front of the recorder; default-disabled (every
  /// op admitted at weight 1).
  LoadShedderConfig shed{};
  /// Exact-flow alert refinement; enabled by default but inert until the
  /// detector flags its first candidate keys.
  FlowRefineryConfig refinery{};
  /// Fault injection for tests/benches: the epoch thread sleeps this long
  /// at the start of EVERY epoch — a deterministic slow-consumer stand-in
  /// that provokes close_stall_us. It never moves the shed level: the
  /// budget trigger counts ops, not time, so alerts stay identical. 0 (the
  /// default) injects nothing.
  std::uint64_t inject_epoch_stall_us{0};
};

class OverlappedPipeline {
 public:
  explicit OverlappedPipeline(const OverlappedPipelineConfig& config);
  /// Joins the epoch thread; any interval not yet closed is discarded.
  ~OverlappedPipeline();

  OverlappedPipeline(const OverlappedPipeline&) = delete;
  OverlappedPipeline& operator=(const OverlappedPipeline&) = delete;

  /// Enqueues one packet into the current interval. `weight` must be an
  /// integer (int32 counters); std::invalid_argument otherwise.
  void offer(const PacketRecord& p, double weight = 1.0);

  /// Seals the current interval and kicks its detection epoch off in the
  /// background. Blocks only for the seal itself (previous-epoch
  /// backpressure + recorder drain + rebind), NOT for the epoch. Rethrows
  /// any exception the previous epoch raised.
  void close_interval();

  /// Blocks until the in-flight epoch (if any) has finished; rethrows its
  /// exception, if any. Call before take_results() at end of stream.
  void wait_epoch_idle();

  /// Moves out every finished IntervalResult, in interval order (the single
  /// epoch thread finishes epochs in submission order). Call after
  /// wait_epoch_idle() for a complete set.
  std::vector<IntervalResult> take_results();

  /// Total microseconds close_interval() spent waiting for a previous epoch
  /// that was still running — the pipeline's backpressure signal. 0 means
  /// every epoch finished within its interval and ingest never waited on
  /// detection.
  std::uint64_t close_stall_us() const { return close_stall_us_; }

  const HifindDetectorConfig& detector_config() const {
    return detector_.config();
  }
  /// Shard replicas per generation.
  std::size_t num_shards() const { return shards_active_.size(); }

  /// Current shed level (rate 2^-level); 0 when not shedding. Ingest-thread
  /// view, between offers.
  std::uint32_t shed_level() const { return shedder_.level(); }

 private:
  void epoch_loop();
  /// Pre: caller holds mu_. Rethrows and clears a stored epoch exception.
  void rethrow_epoch_error_locked();

  OverlappedPipelineConfig config_;
  HifindDetector detector_;  ///< epoch-thread only, after construction

  // --- Overload layer (ingest-thread state) ------------------------------
  LoadShedder shedder_;
  ActiveFlowTable flow_table_;
  std::uint64_t last_drain_yields_{0};  ///< per-interval delta baseline

  // --- Recording state ---------------------------------------------------
  std::vector<std::unique_ptr<SketchBank>> shard_banks_;  ///< 2N replicas
  std::vector<SketchBank*> shards_active_;  ///< generation being recorded
  std::vector<SketchBank*> shards_spare_;   ///< generation the epoch reads
  /// Epoch-thread-owned cumulative lifetime SYN/ACK history (shards are
  /// per-interval only); lent to the reduced shard for each process().
  KarySketch history_;
  std::unique_ptr<ShardedRecorder> recorder_;

  std::uint64_t interval_{0};
  std::uint64_t close_stall_us_{0};

  /// Epoch-thread mailbox: close_interval() posts the sealed input (shard
  /// set + per-shard op counts) under mu_; the epoch thread processes
  /// it and posts the result back.
  std::mutex mu_;
  std::condition_variable cv_;
  bool epoch_busy_{false};
  bool stop_{false};
  std::vector<SketchBank*> epoch_shards_;  ///< sealed generation
  std::vector<std::uint64_t> epoch_shard_ops_;  ///< occupancy telemetry
  std::uint64_t epoch_interval_{0};
  // Overload inputs sealed alongside each epoch's shards: the interval's shed
  // outcome, exact-flow evidence, and ring backpressure deltas.
  ShedReport epoch_shed_;
  FlowEvidence epoch_evidence_;
  std::vector<std::uint64_t> epoch_ring_full_;
  std::uint64_t epoch_drain_yields_{0};
  /// Epoch -> ingest: keys the last epoch's final alerts flagged, picked up
  /// (under the same wait that already serializes close against the epoch)
  /// and installed into the flow table at the next close.
  std::vector<FlowCandidate> pending_candidates_;
  std::vector<IntervalResult> results_;
  std::exception_ptr epoch_error_;
  std::thread epoch_thread_;
};

}  // namespace hifind
