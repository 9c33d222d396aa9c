// Interval-close (detection-epoch) latency bench.
//
// Replays a NU-like scenario and times the INGEST-BLOCKING portion of each
// interval close under several pipeline configurations. For the fused
// variants that is all of process(); for the double-buffered overlapped
// variants it is close_interval() only — the epoch runs off the ingest path
// and its duration is reported separately. Emits one JSON object on stdout;
// bench/run_detection_epoch.py wraps it into BENCH_detect_epoch.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/interval.hpp"
#include "detect/hifind.hpp"
#include "detect/overlapped.hpp"
#include "detect/sketch_bank.hpp"
#include "forecast/forecaster.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/simd_ops.hpp"

namespace hifind::bench {
namespace {

struct CloseStats {
  double p50_ms{0}, p99_ms{0}, mean_ms{0};
  std::size_t intervals{0};
  std::size_t final_alerts{0};
  std::size_t epoch_threads{0};  ///< detector pool threads for this variant
  /// Overlapped pipeline only: the epoch's own duration (it runs off the
  /// ingest path, so it is NOT part of the close percentiles above) and the
  /// total backpressure close_interval() absorbed waiting for a prior epoch.
  double epoch_p50_ms{0}, epoch_p99_ms{0};
  std::uint64_t close_stall_us{0};
  bool overlapped{false};
  /// Total streaming-search work units across the run (the calibration
  /// datum behind EpochBudget::work_units_per_ms).
  std::size_t inference_work{0};
};

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

CloseStats finish(std::vector<double>& times_ms, std::size_t alerts) {
  // Drop the (fast) warm-up closes so the percentiles describe full epochs.
  if (times_ms.size() > 2) times_ms.erase(times_ms.begin(), times_ms.begin() + 2);
  CloseStats s;
  s.intervals = times_ms.size();
  for (const double t : times_ms) s.mean_ms += t;
  s.mean_ms /= static_cast<double>(times_ms.size());
  s.p50_ms = percentile(times_ms, 0.50);
  s.p99_ms = percentile(times_ms, 0.99);
  s.final_alerts = alerts;
  return s;
}

/// Replays the scenario, timing each interval close with `close`.
template <class CloseFn>
CloseStats replay(const Scenario& scenario, const SketchBankConfig& bank_cfg,
                  std::uint32_t interval_seconds, CloseFn&& close) {
  SketchBank bank(bank_cfg);
  IntervalClock clock(interval_seconds);
  std::vector<double> times_ms;
  std::size_t alerts = 0;
  std::uint64_t current = 0;
  bool any = false;
  auto close_interval = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    alerts += close(bank, current);
    const auto t1 = std::chrono::steady_clock::now();
    times_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    bank.clear();
  };
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!any) {
      current = iv;
      any = true;
    }
    while (current < iv) {
      close_interval();
      ++current;
    }
    bank.record(p);
  }
  close_interval();
  return finish(times_ms, alerts);
}

CloseStats run_detector(const Scenario& scenario, const PipelineConfig& pc,
                        std::size_t epoch_threads,
                        const EpochBudget& budget = {}) {
  HifindDetectorConfig dc = pc.detector;
  dc.epoch_threads = epoch_threads;
  dc.budget = budget;
  HifindDetector detector(dc);
  std::size_t work = 0;
  CloseStats s = replay(scenario, pc.bank, dc.interval_seconds,
                        [&](const SketchBank& bank, std::uint64_t interval) {
                          const IntervalResult r =
                              detector.process(bank, interval);
                          work += r.epoch.inference_work;
                          return r.final.size();
                        });
  s.epoch_threads = epoch_threads;
  s.inference_work = work;
  return s;
}

/// Replays the scenario through the double-buffered pipeline. The close
/// percentiles time close_interval() ONLY — the ingest-blocking seal. The
/// epoch itself runs in the background; the replay (which has no line time)
/// then waits for it OUTSIDE the timed region, modeling the interval's worth
/// of recording a live deployment does while the epoch runs. That wait is
/// reported separately as the epoch duration, and any time a close DID have
/// to wait for a straggling epoch shows up in close_stall_us.
CloseStats run_overlapped(const Scenario& scenario, const PipelineConfig& pc,
                          unsigned record_threads, std::size_t epoch_threads) {
  OverlappedPipelineConfig cfg;
  cfg.bank = pc.bank;
  cfg.detector = pc.detector;
  cfg.detector.epoch_threads = epoch_threads;
  cfg.record_threads = record_threads;
  OverlappedPipeline pipe(cfg);
  IntervalClock clock(cfg.detector.interval_seconds);
  std::vector<double> close_ms;
  std::vector<double> epoch_ms;
  std::uint64_t current = 0;
  bool any = false;
  auto close_one = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    pipe.close_interval();
    const auto t1 = std::chrono::steady_clock::now();
    pipe.wait_epoch_idle();
    const auto t2 = std::chrono::steady_clock::now();
    close_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    epoch_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
  };
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!any) {
      current = iv;
      any = true;
    }
    while (current < iv) {
      close_one();
      ++current;
    }
    pipe.offer(p);
  }
  close_one();
  pipe.wait_epoch_idle();
  std::size_t alerts = 0;
  std::size_t work = 0;
  for (const IntervalResult& r : pipe.take_results()) {
    alerts += r.final.size();
    work += r.epoch.inference_work;
  }
  CloseStats s = finish(close_ms, alerts);
  if (epoch_ms.size() > 2) {
    epoch_ms.erase(epoch_ms.begin(), epoch_ms.begin() + 2);
  }
  s.epoch_p50_ms = percentile(epoch_ms, 0.50);
  s.epoch_p99_ms = percentile(epoch_ms, 0.99);
  s.close_stall_us = pipe.close_stall_us();
  s.epoch_threads = epoch_threads;
  s.overlapped = true;
  s.inference_work = work;
  return s;
}

// ---- Per-backend reversal ablation ---------------------------------------
//
// Times REVERSE alone — begin/run/take_result over the three RS error
// sketches, verifier included — per interval, on an attack-heavy scenario,
// once per backend. The accuracy columns come from a separate full-detector
// run on the same scenario scored against the ground-truth ledger, so the
// latency numbers are not polluted by forecaster or phase-2/3 work and the
// recall numbers are end-to-end.
struct ReversalStats {
  double p50_ms{0}, p99_ms{0}, mean_ms{0};
  std::size_t intervals{0};
  std::size_t keys{0};          ///< heavy keys recovered across the run
  std::size_t memory_bytes{0};  ///< three invertible sketches, 4B counters
  std::size_t final_alerts{0};
  double event_recall{0};
  double precision{0};
};

/// NU preset scaled up: many simultaneous floods and scans, i.e. many heavy
/// buckets per stage — the worst case for the modular-hash DFS sweep (bucket
/// cross-products) and the stress case the ≥5x reversal gate is measured on.
ScenarioConfig attack_heavy_config() {
  ScenarioConfig c = nu_like_config(7, 1800);
  c.num_spoofed_floods = 10;
  c.num_fixed_floods = 8;
  c.num_hscans = 60;
  c.num_vscans = 16;
  c.num_block_scans = 2;
  return c;
}

ReversalStats run_reversal_ablation(const Scenario& scenario,
                                    const PipelineConfig& base,
                                    SketchBackendKind kind) {
  PipelineConfig pc = base;
  pc.bank.backend = kind;
  const HifindDetectorConfig& dc = pc.detector;
  const double t = dc.interval_threshold();

  ReversalStats out;
  {
    const SketchBank probe(pc.bank);
    out.memory_bytes = probe.rs_sip_dport().grid().memory_bytes() +
                       probe.rs_dip_dport().grid().memory_bytes() +
                       probe.rs_sip_dip().grid().memory_bytes();
  }

  // Pass 1: reversal latency. The detector's EWMA forecasters reproduce the
  // error sketches outside the timed region; only the three REVERSE runs
  // (with the same verification screen the detector applies) are on the
  // clock.
  const double a = dc.ewma_alpha;
  Forecaster<InvertibleSketch> f1(a), f2(a), f3(a);
  Forecaster<KarySketch> v1(a), v2(a), v3(a);
  ReverseEngine engine;
  std::vector<double> times_ms;
  replay(scenario, pc.bank, dc.interval_seconds,
         [&](const SketchBank& bank, std::uint64_t) -> std::size_t {
           // Each error grid is read through the bank sketch it came from.
           const std::array<const InvertibleSketch*, 3> sketches{
               &bank.rs_dip_dport(), &bank.rs_sip_dip(),
               &bank.rs_sip_dport()};
           const std::array<const KarySketch*, 3> verif_sketches{
               &bank.verif_dip_dport(), &bank.verif_sip_dip(),
               &bank.verif_sip_dport()};
           const std::array<const CounterGrid*, 3> errors{
               f1.step(bank.rs_dip_dport()), f2.step(bank.rs_sip_dip()),
               f3.step(bank.rs_sip_dport())};
           const std::array<const CounterGrid*, 3> verifs{
               v1.step(bank.verif_dip_dport()), v2.step(bank.verif_sip_dip()),
               v3.step(bank.verif_sip_dport())};
           if (errors[0] == nullptr) return 0;  // warm-up interval
           const auto t0 = std::chrono::steady_clock::now();
           for (std::size_t i = 0; i < 3; ++i) {
             InferenceOptions options = dc.inference;
             options.verifier = [s = verif_sketches[i], e = verifs[i], t](
                                    std::uint64_t key, double) {
               return s->estimate(key, *e) >= t;
             };
             engine.begin(*sketches[i], *errors[i], t, options);
             engine.run();
             out.keys += engine.take_result().keys.size();
           }
           const auto t1 = std::chrono::steady_clock::now();
           times_ms.push_back(
               std::chrono::duration<double, std::milli>(t1 - t0).count());
           return 0;
         });
  out.intervals = times_ms.size();
  for (const double ms : times_ms) out.mean_ms += ms;
  if (!times_ms.empty()) {
    out.mean_ms /= static_cast<double>(times_ms.size());
    out.p50_ms = percentile(times_ms, 0.50);
    out.p99_ms = percentile(times_ms, 0.99);
  }

  // Pass 2: end-to-end accuracy through the full detector on this backend.
  HifindDetector detector(dc);
  std::vector<IntervalResult> results;
  replay(scenario, pc.bank, dc.interval_seconds,
         [&](const SketchBank& bank, std::uint64_t interval) {
           results.push_back(detector.process(bank, interval));
           return results.back().final.size();
         });
  for (const IntervalResult& r : results) out.final_alerts += r.final.size();
  const IntervalClock clock(dc.interval_seconds);
  const EvaluationSummary ev = evaluate(results, scenario.truth, clock);
  out.event_recall = ev.event_recall();
  out.precision = ev.precision();
  return out;
}

void emit_reversal(const char* name, const ReversalStats& s,
                   bool last = false) {
  std::printf(
      "    \"%s\": {\"reversal_p50_ms\": %.5f, \"reversal_p99_ms\": %.5f, "
      "\"reversal_mean_ms\": %.5f, \"intervals\": %zu, \"keys\": %zu, "
      "\"memory_bytes\": %zu, \"final_alerts\": %zu, \"event_recall\": %.4f, "
      "\"precision\": %.4f}%s\n",
      name, s.p50_ms, s.p99_ms, s.mean_ms, s.intervals, s.keys,
      s.memory_bytes, s.final_alerts, s.event_recall, s.precision,
      last ? "" : ",");
}

void emit(const char* name, const CloseStats& s, bool last = false) {
  std::printf(
      "    \"%s\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms\": %.4f, "
      "\"intervals\": %zu, \"final_alerts\": %zu, \"epoch_threads\": %zu",
      name, s.p50_ms, s.p99_ms, s.mean_ms, s.intervals, s.final_alerts,
      s.epoch_threads);
  if (s.overlapped) {
    std::printf(
        ", \"epoch_p50_ms\": %.4f, \"epoch_p99_ms\": %.4f, "
        "\"close_stall_us\": %llu",
        s.epoch_p50_ms, s.epoch_p99_ms,
        static_cast<unsigned long long>(s.close_stall_us));
  }
  std::printf("}%s\n", last ? "" : ",");
}

int run() {
  const PipelineConfig pc = default_pipeline_config();
  const Scenario scenario = build_scenario(nu_like_config(7, 3600));

  const CloseStats fused_1t = run_detector(scenario, pc, 1);
  const CloseStats fused_2t = run_detector(scenario, pc, 2);
  const CloseStats fused_4t = run_detector(scenario, pc, 4);
  const CloseStats fused_8t = run_detector(scenario, pc, 8);

  // Double-buffered pipeline: close_interval() percentiles time only the
  // ingest-blocking seal; the epoch runs off-path (reported separately).
  const CloseStats overlapped_1r1e = run_overlapped(scenario, pc, 1, 1);
  const CloseStats overlapped_2r2e = run_overlapped(scenario, pc, 2, 2);

  // Budgeted epoch: same scenario under a hard close-time budget. The
  // deadline is sized from the default calibration constant; what matters
  // here is that the run completes, alerts stay deterministic, and the
  // truncation shows up in the work numbers below.
  EpochBudget budget;
  budget.deadline_ms = 2.0;
  const CloseStats budgeted_1t = run_detector(scenario, pc, 1, budget);
  const CloseStats budgeted_4t = run_detector(scenario, pc, 4, budget);

  // Determinism sanity: identical alert streams at every thread count, on
  // both the fused and the budgeted (truncated) path, and the overlapped
  // pipeline must reproduce the serial alert stream exactly.
  const bool alerts_match = fused_1t.final_alerts == fused_2t.final_alerts &&
                            fused_1t.final_alerts == fused_4t.final_alerts &&
                            fused_1t.final_alerts == fused_8t.final_alerts &&
                            budgeted_1t.final_alerts ==
                                budgeted_4t.final_alerts;
  const bool overlapped_matches_serial =
      overlapped_1r1e.final_alerts == fused_1t.final_alerts &&
      overlapped_2r2e.final_alerts == fused_1t.final_alerts;

  // Reversal ablation: both backends against the attack-heavy scenario.
  // The ≥5x p99 gate and the recall-parity check live in
  // run_detection_epoch.py; this bench just reports the measurements.
  const Scenario attack_scenario = build_scenario(attack_heavy_config());
  const ReversalStats rev_reference = run_reversal_ablation(
      attack_scenario, pc, SketchBackendKind::kReversible);
  const ReversalStats rev_compact =
      run_reversal_ablation(attack_scenario, pc, SketchBackendKind::kCompact);
  const double reversal_speedup_p99 =
      rev_compact.p99_ms > 0.0 ? rev_reference.p99_ms / rev_compact.p99_ms
                               : 0.0;
  const double reversal_speedup_p50 =
      rev_compact.p50_ms > 0.0 ? rev_reference.p50_ms / rev_compact.p50_ms
                               : 0.0;

  // Calibration datum for EpochBudget::work_units_per_ms: streaming-search
  // work units the unbudgeted serial epoch retired per millisecond of close
  // time on this host.
  const double total_close_ms =
      fused_1t.mean_ms * static_cast<double>(fused_1t.intervals);
  const double work_rate =
      total_close_ms > 0.0
          ? static_cast<double>(fused_1t.inference_work) / total_close_ms
          : 0.0;

  std::printf("{\n");
  std::printf("  \"simd_backend\": \"%s\",\n", simd::active_backend());
  std::printf("  \"alerts_match_across_threads\": %s,\n",
              alerts_match ? "true" : "false");
  std::printf("  \"overlapped_alerts_match_serial\": %s,\n",
              overlapped_matches_serial ? "true" : "false");
  std::printf("  \"budget_work_rate_units_per_ms\": %.1f,\n", work_rate);
  std::printf("  \"budgeted_deadline_ms\": %.1f,\n", budget.deadline_ms);
  std::printf("  \"reversal_ablation\": {\n");
  std::printf("    \"scenario\": \"nu_like_attack_heavy\",\n");
  std::printf("    \"compact_speedup_p50\": %.2f,\n", reversal_speedup_p50);
  std::printf("    \"compact_speedup_p99\": %.2f,\n", reversal_speedup_p99);
  emit_reversal("reversible", rev_reference);
  emit_reversal("compact", rev_compact, /*last=*/true);
  std::printf("  },\n");
  std::printf("  \"configs\": {\n");
  emit("fused_1t", fused_1t);
  emit("fused_2t", fused_2t);
  emit("fused_4t", fused_4t);
  emit("fused_8t", fused_8t);
  emit("budgeted_1t", budgeted_1t);
  emit("budgeted_4t", budgeted_4t);
  emit("overlapped_1r1e", overlapped_1r1e);
  emit("overlapped_2r2e", overlapped_2r2e, /*last=*/true);
  std::printf("  }\n}\n");
  return alerts_match && overlapped_matches_serial ? 0 : 1;
}

}  // namespace
}  // namespace hifind::bench

int main() { return hifind::bench::run(); }
