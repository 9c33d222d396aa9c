#include "detect/overlapped.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace hifind {

OverlappedPipeline::OverlappedPipeline(const OverlappedPipelineConfig& config)
    : config_(config),
      detector_(config.detector),
      shedder_(config.shed),
      flow_table_(config.refinery),
      history_(SketchBank::history_config(config.bank)) {
  const std::size_t n = std::clamp<std::size_t>(config.record_threads, 1,
                                                SketchBank::kMaxShards);
  // Two generations of N replicas: while the epoch reduces and detects on
  // one set, the recorder fills the other. All 2N banks share one config,
  // so any generation reduces into its own first shard.
  shard_banks_.reserve(2 * n);
  shards_active_.reserve(n);
  shards_spare_.reserve(n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    shard_banks_.push_back(std::make_unique<SketchBank>(config.bank));
  }
  for (std::size_t i = 0; i < n; ++i) {
    shards_active_.push_back(shard_banks_[i].get());
    shards_spare_.push_back(shard_banks_[n + i].get());
  }
  recorder_ = std::make_unique<ShardedRecorder>(
      std::span<SketchBank* const>(shards_active_), config.ring_capacity);
  epoch_thread_ = std::thread([this] { epoch_loop(); });
}

OverlappedPipeline::~OverlappedPipeline() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !epoch_busy_; });
    stop_ = true;
  }
  cv_.notify_all();
  if (epoch_thread_.joinable()) epoch_thread_.join();
}

void OverlappedPipeline::offer(const PacketRecord& p, double weight) {
  check_record_weight(weight);
  RecordOp op;
  if (!make_record_op(p, weight, op)) return;
  // Exact-flow evidence accumulates from the PRE-shed op stream: the table
  // sees every recordable op at its offered weight even when the sketches
  // run at 2^-k coverage. empty() keeps the common no-candidates case at
  // one branch.
  if (!flow_table_.empty()) flow_table_.observe(op);
  if (shedder_.enabled()) {
    const double w = shedder_.admit(op);
    if (w == 0.0) return;  // shed: the flow's 2^-k cohort carries its mass
    if (w != 1.0) {
      // Inline Horvitz–Thompson compensation: the counters themselves carry
      // the 1/coverage rescale, exactly, even across mid-interval level
      // changes — and integer 2^k weights keep the shard merge bit-exact.
      op.delta *= w;
      op.weight *= w;
    }
  }
  recorder_->offer_op(op);
}

void OverlappedPipeline::rethrow_epoch_error_locked() {
  if (epoch_error_) {
    std::exception_ptr e = std::exchange(epoch_error_, nullptr);
    std::rethrow_exception(e);
  }
}

void OverlappedPipeline::close_interval() {
  using Clock = std::chrono::steady_clock;

  // 1. Backpressure point: the previous epoch gets the whole interval to
  //    finish; if it is still running now, the seal must wait for it (the
  //    spare generation is its input). This wait is the ONLY place the
  //    epoch can block ingest, and it is measured. The same wait is what
  //    makes the candidate hand-off safe: once it returns, the previous
  //    epoch has posted its flagged keys and will not touch them again.
  std::vector<FlowCandidate> candidates;
  {
    const Clock::time_point t0 = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    if (epoch_busy_) {
      cv_.wait(lock, [this] { return !epoch_busy_; });
      close_stall_us_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count());
    }
    rethrow_epoch_error_locked();
    candidates = std::exchange(pending_candidates_, {});
  }

  // 2. Seal the recording generation: every offered packet applied. The
  //    backpressure counters are snapshotted right after the drain so the
  //    interval's report covers its own drain as well.
  recorder_->drain();
  std::vector<std::uint64_t> shard_ops = recorder_->take_shard_ops();
  std::vector<std::uint64_t> ring_full = recorder_->take_ring_full_spins();
  const std::uint64_t drain_yields_total = recorder_->drain_spin_yields();
  const std::uint64_t drain_yields = drain_yields_total - last_drain_yields_;
  last_drain_yields_ = drain_yields_total;

  // 3. Seal the overload layer. Order matters: seal() snapshots evidence
  //    for keys installed BEFORE this interval (full-interval counts), and
  //    only then are the previous epoch's fresh candidates installed — a
  //    just-flagged key must not seal a partial interval as evidence and
  //    kill a real attack.
  FlowEvidence evidence = flow_table_.seal(interval_);
  flow_table_.install(candidates, interval_);
  ShedReport shed = shedder_.seal_interval();

  // 4. Resume ingest into the spare generation: drain + rebind ONLY. The
  //    spare generation comes back from the previous epoch already reset
  //    (the epoch thread resets its input shards once it has published the
  //    result), and the cumulative SYN/ACK history lives in the epoch-owned
  //    history_ — so the ingest path pays no clear and no history copy.
  recorder_->rebind(std::span<SketchBank* const>(shards_spare_));
  std::swap(shards_active_, shards_spare_);

  // 5. Kick the sealed generation's epoch (now pointed to by the spare
  //    side), with the interval's overload inputs riding the same mailbox.
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_shards_ = shards_spare_;
    epoch_shard_ops_ = std::move(shard_ops);
    epoch_shed_ = shed;
    epoch_evidence_ = std::move(evidence);
    epoch_ring_full_ = std::move(ring_full);
    epoch_drain_yields_ = drain_yields;
    epoch_interval_ = interval_++;
    epoch_busy_ = true;
  }
  cv_.notify_all();
}

void OverlappedPipeline::wait_epoch_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !epoch_busy_; });
  rethrow_epoch_error_locked();
}

std::vector<IntervalResult> OverlappedPipeline::take_results() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(results_, {});
}

void OverlappedPipeline::epoch_loop() {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    std::vector<SketchBank*> shards;
    std::vector<std::uint64_t> shard_ops;
    std::uint64_t interval = 0;
    ShedReport shed;
    FlowEvidence evidence;
    std::vector<std::uint64_t> ring_full;
    std::uint64_t drain_yields = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || epoch_busy_; });
      if (stop_ && !epoch_busy_) return;
      shards = epoch_shards_;
      shard_ops = std::move(epoch_shard_ops_);
      shed = epoch_shed_;
      evidence = std::move(epoch_evidence_);
      ring_full = std::move(epoch_ring_full_);
      drain_yields = epoch_drain_yields_;
      interval = epoch_interval_;
    }
    IntervalResult result;
    std::exception_ptr error;
    try {
      // Slow-consumer fault injection (tests/benches): pretend this epoch
      // is expensive before doing any real work, so the NEXT close sees
      // the stall exactly as it would behind a genuinely slow epoch.
      if (config_.inject_epoch_stall_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.inject_epoch_stall_us));
      }
      // Stage 1 — reduce the sealed generation IN PLACE into its first
      // shard: shards 1..N-1 are added into shard 0 (with one shard no
      // counter moves), and every shard's SYN/ACK-history delta is added,
      // in shard order, into the cumulative history_. Fanned out per grid
      // on the detector's epoch pool, which is idle between epochs.
      SketchBank& sealed = *shards.front();
      const Clock::time_point t0 = Clock::now();
      sealed.merge_shards(
          std::span<const SketchBank* const>(shards.data(), shards.size()),
          &detector_.pool(), &history_);
      const std::uint64_t merge_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count());
      // Stage 2 — detection on the reduced shard, which presents the
      // cumulative history for the pass (two O(1) swaps): exactly the bank
      // a serial single-bank pipeline would hand the detector. The history
      // goes back to history_ even if detection throws.
      sealed.swap_history(history_);
      try {
        result = detector_.process(sealed, interval);
      } catch (...) {
        sealed.swap_history(history_);
        throw;
      }
      sealed.swap_history(history_);
      // Telemetry (reporting only; excluded from EpochReport equality).
      result.epoch.shards = shards.size();
      result.epoch.merge_us = merge_us;
      std::uint64_t total_ops = 0;
      for (std::uint64_t ops : shard_ops) total_ops += ops;
      if (total_ops > 0) {
        const auto [lo, hi] =
            std::minmax_element(shard_ops.begin(), shard_ops.end());
        const double scale = static_cast<double>(shard_ops.size()) /
                             static_cast<double>(total_ops);
        result.epoch.shard_occupancy_min = static_cast<double>(*lo) * scale;
        result.epoch.shard_occupancy_max = static_cast<double>(*hi) * scale;
      }

      // Overload stamping. Coverage: the counters already carry the inline
      // 2^k compensation, so sample_coverage is REPORTING — no further
      // rescale happens (or may happen) downstream.
      result.coverage.sample_coverage = shed.sample_coverage;
      result.coverage.shed = shed.shed();
      result.coverage.ops_offered = shed.ops_offered;
      result.coverage.ops_shed = shed.ops_shed;
      result.coverage.shed_level_max = shed.level_max;

      // Exact-flow refinement against the interval's sealed evidence — a
      // pure function of (final alerts, evidence, config), off the ingest
      // path like everything else in the epoch.
      RefinementOutcome refined = refine_alerts(
          result.final, evidence, detector_.config().interval_threshold(),
          config_.refinery);
      result.refined = std::move(refined.refined);
      result.refinement = refined.report;

      // Ring backpressure telemetry (reporting only, like shards/merge_us).
      std::uint64_t ring_full_total = 0;
      for (std::uint64_t c : ring_full) ring_full_total += c;
      result.epoch.ring_full_spins = ring_full_total;
      result.epoch.shard_ring_full_spins = std::move(ring_full);
      result.epoch.drain_spin_yields = drain_yields;
    } catch (...) {
      error = std::current_exception();
    }
    // Publish before housekeeping: the result (or the error) is out before
    // the generation is wiped.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error) {
        if (!epoch_error_) epoch_error_ = error;
      } else {
        if (config_.refinery.enabled) {
          // Queue this epoch's flagged keys for exact tracking. Derived
          // from the PRE-refinement final list on purpose: a killed
          // phantom stays tracked while the sketches keep flagging it, so
          // it keeps being killed instead of flapping back to unverified.
          pending_candidates_.clear();
          pending_candidates_.reserve(result.final.size());
          for (const Alert& a : result.final) {
            pending_candidates_.push_back(FlowCandidate{a.key_kind, a.key});
          }
          std::sort(pending_candidates_.begin(), pending_candidates_.end(),
                    [](const FlowCandidate& x, const FlowCandidate& y) {
                      if (x.kind != y.kind) return x.kind < y.kind;
                      return x.key < y.key;
                    });
          pending_candidates_.erase(
              std::unique(pending_candidates_.begin(),
                          pending_candidates_.end(),
                          [](const FlowCandidate& x, const FlowCandidate& y) {
                            return x.kind == y.kind && x.key == y.key;
                          }),
              pending_candidates_.end());
        }
        results_.push_back(std::move(result));
      }
    }
    // The shards are per-interval accumulators: zero them (history deltas
    // included) before the next seal can rebind into them. epoch_busy_
    // clears only after this, on a throwing epoch too, so the recorder never
    // rebinds into a generation with stale counters.
    for (SketchBank* s : shards) s->reset_all();
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_busy_ = false;
    }
    cv_.notify_all();
  }
}

}  // namespace hifind
