#include "detect/hifind.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

namespace hifind {

HifindDetector::HifindDetector(const HifindDetectorConfig& config)
    : config_(config),
      f_sip_dport_(config.ewma_alpha),
      f_dip_dport_(config.ewma_alpha),
      f_sip_dip_(config.ewma_alpha),
      fv_sip_dport_(config.ewma_alpha),
      fv_dip_dport_(config.ewma_alpha),
      fv_sip_dip_(config.ewma_alpha),
      f_os_(config.ewma_alpha),
      ratio_filter_(config.min_syn_ratio),
      persistence_filter_(config.min_persist_intervals) {}

TaskPool& HifindDetector::pool() {
  if (!pool_) {
    std::size_t threads = config_.epoch_threads;
    if (threads == 0) {  // auto: one worker per hardware thread, at most 8
      const unsigned hw = std::thread::hardware_concurrency();
      threads = std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
    }
    pool_ = std::make_unique<TaskPool>(threads);
  }
  return *pool_;
}

IntervalResult HifindDetector::process(const SketchBank& bank,
                                       std::uint64_t interval) {
  return process(bank, interval, CoverageReport{});
}

IntervalResult HifindDetector::process(const SketchBank& bank,
                                       std::uint64_t interval,
                                       CoverageReport coverage) {
  // Partial coverage: read every bank counter as (1/coverage) x counter.
  const double scale = coverage.degraded && coverage.fraction > 0.0
                           ? 1.0 / coverage.fraction
                           : 1.0;
  IntervalResult result;
  result.interval = interval;
  result.coverage = std::move(coverage);
  result.counters_in_range = bank.counters_in_range();
  const double t = config_.interval_threshold();
  TaskPool& tasks = pool();

  // Stage A — the 7 forecaster steps and the lifetime-history fold are
  // independent tasks; each writes one distinct slot. The RS steps collect
  // their heavy-bucket candidates in the same fused counter pass, so stage
  // B starts with its scan already done.
  const CounterGrid* e_sip_dport = nullptr;
  const CounterGrid* e_dip_dport = nullptr;
  const CounterGrid* e_sip_dip = nullptr;
  const CounterGrid* ev_sip_dport = nullptr;
  const CounterGrid* ev_dip_dport = nullptr;
  const CounterGrid* ev_sip_dip = nullptr;
  const CounterGrid* e_os = nullptr;
  // The fold goes first: on a small pool it then runs beside the large RS
  // rolls instead of after the last roll.
  tasks.submit([&] { fold_history(bank.synack_dip_dport()); });
  tasks.submit([&, t] {
    e_sip_dport = f_sip_dport_.step(bank.rs_sip_dport(), t, &hb_sip_dport_,
                                    scale);
  });
  tasks.submit([&, t] {
    e_dip_dport = f_dip_dport_.step(bank.rs_dip_dport(), t, &hb_dip_dport_,
                                    scale);
  });
  tasks.submit([&, t] {
    e_sip_dip = f_sip_dip_.step(bank.rs_sip_dip(), t, &hb_sip_dip_, scale);
  });
  tasks.submit([&] {
    ev_sip_dport = fv_sip_dport_.step(bank.verif_sip_dport(), 0.0, nullptr,
                                      scale);
  });
  tasks.submit([&] {
    ev_dip_dport = fv_dip_dport_.step(bank.verif_dip_dport(), 0.0, nullptr,
                                      scale);
  });
  tasks.submit([&] {
    ev_sip_dip = fv_sip_dip_.step(bank.verif_sip_dip(), 0.0, nullptr, scale);
  });
  tasks.submit(
      [&] { e_os = f_os_.step(bank.os_dip_dport(), 0.0, nullptr, scale); });
  tasks.wait_idle();
  if (!e_sip_dport || !e_dip_dport || !e_sip_dip || !ev_sip_dport ||
      !ev_dip_dport || !ev_sip_dip) {
    return result;  // forecaster warm-up interval
  }

  // Stage B — the three verified inferences are independent of each other;
  // only the set logic joining their outputs (phase 1) is sequential. An
  // unbudgeted reversible search splits into its first-byte subtrees, and
  // one drainer per pool worker takes subtrees of all three searches from a
  // shared cursor, so no worker idles behind the largest search. A budgeted
  // or compact search is one pool task that runs it to completion. Budget
  // mode converts the deadline to a deterministic work cap split evenly
  // over the three searches; its truncation point depends on the DFS order,
  // so a budgeted search keeps the sequential walk.
  InferenceOptions opts = config_.inference;
  std::size_t work_budget = 0;
  if (config_.budget.enabled()) {
    work_budget = config_.budget.work_budget();
    opts.max_work = work_budget / 3;
    if (config_.budget.max_heavy_per_stage != 0) {
      opts.max_heavy_per_stage =
          opts.max_heavy_per_stage == 0
              ? config_.budget.max_heavy_per_stage
              : std::min(opts.max_heavy_per_stage,
                         config_.budget.max_heavy_per_stage);
    }
  }
  // Each error grid is read through the bank sketch it was observed from.
  auto begin_inference = [&](std::size_t slot, const InvertibleSketch& rs,
                             const CounterGrid& error, const KarySketch& verif,
                             const CounterGrid& verif_error,
                             StageBuckets& buckets) {
    InferenceOptions o = opts;
    o.verifier = [&verif, &verif_error, t](std::uint64_t key,
                                            double /*estimate*/) {
      return verif.estimate(key, verif_error) >= t;
    };
    inference_[slot].begin(rs, error, t, o, std::move(buckets));
  };
  begin_inference(0, bank.rs_dip_dport(), *e_dip_dport,
                  bank.verif_dip_dport(), *ev_dip_dport, hb_dip_dport_);
  begin_inference(1, bank.rs_sip_dip(), *e_sip_dip, bank.verif_sip_dip(),
                  *ev_sip_dip, hb_sip_dip_);
  begin_inference(2, bank.rs_sip_dport(), *e_sip_dport,
                  bank.verif_sip_dport(), *ev_sip_dport, hb_sip_dport_);
  std::array<StreamingInference*, 3> split{};
  std::size_t num_split = 0;
  for (std::size_t slot = 0; slot < 3; ++slot) {
    if (StreamingInference* search = inference_[slot].split()) {
      split[num_split++] = search;
    } else {
      tasks.submit([this, slot] { inference_[slot].run(); });
    }
  }
  run_split_searches(std::span(split.data(), num_split), tasks, walkers_);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    inference_result_[slot] = inference_[slot].take_result();
  }

  result.epoch.budgeted = config_.budget.enabled();
  result.epoch.work_budget = work_budget;
  for (const InferenceResult& r : inference_result_) {
    result.epoch.inference_work += r.work_used;
    result.epoch.heavy_buckets_dropped += r.heavy_buckets_dropped;
    result.epoch.candidates_truncated |= r.truncated || r.work_exhausted;
  }
  result.epoch.truncated = result.epoch.candidates_truncated ||
                           result.epoch.heavy_buckets_dropped > 0;

  result.raw = phase1(interval, inference_result_[0].keys,
                      inference_result_[1].keys, inference_result_[2].keys);
  result.after_2d =
      config_.enable_phase2 ? phase2(bank, scale, result.raw) : result.raw;
  result.final = config_.enable_phase3
                     ? phase3(bank, scale, e_os, result.after_2d)
                     : result.after_2d;
  // Consumers can always read `refined`; refinement-capable drivers (the
  // overlapped pipeline) overwrite it with the evidence-filtered list.
  result.refined = result.final;
  return result;
}

std::vector<Alert> HifindDetector::phase1(
    std::uint64_t interval, const std::vector<HeavyKey>& keys_dip_dport,
    const std::vector<HeavyKey>& keys_sip_dip,
    const std::vector<HeavyKey>& keys_sip_dport) {
  std::vector<Alert> alerts;

  // Step 1 — RS({DIP,Dport}): SYN-flooding victims.
  std::unordered_set<std::uint32_t> flooding_dips;
  for (const HeavyKey& k : keys_dip_dport) {
    alerts.push_back(Alert{AttackType::kSynFlooding, interval,
                           KeyKind::DipDport, k.key, k.estimate});
    flooding_dips.insert(unpack_key_ip(k.key).addr);
  }

  // Step 2 — RS({SIP,DIP}): flooder identification or vertical scan.
  flooding_sip_victim_.clear();
  std::unordered_set<std::uint32_t> flooding_sips;
  for (const HeavyKey& k : keys_sip_dip) {
    if (flooding_dips.contains(unpack_key_dip(k.key).addr)) {
      flooding_sips.insert(unpack_key_sip(k.key).addr);
      flooding_sip_victim_.emplace(unpack_key_sip(k.key).addr,
                                   unpack_key_dip(k.key).addr);
    } else {
      alerts.push_back(Alert{AttackType::kVerticalScan, interval,
                             KeyKind::SipDip, k.key, k.estimate});
    }
  }

  // Step 3 — RS({SIP,Dport}): non-spoofed flooding or horizontal scan.
  for (const HeavyKey& k : keys_sip_dport) {
    if (flooding_sips.contains(unpack_key_ip(k.key).addr)) {
      alerts.push_back(Alert{AttackType::kNonSpoofedSynFlooding, interval,
                             KeyKind::SipDport, k.key, k.estimate});
    } else {
      alerts.push_back(Alert{AttackType::kHorizontalScan, interval,
                             KeyKind::SipDport, k.key, k.estimate});
    }
  }
  return alerts;
}

std::vector<Alert> HifindDetector::phase2(
    const SketchBank& bank, double scale,
    const std::vector<Alert>& alerts) const {
  // A non-spoofed SYN flood below the step-1 threshold (or with an unstable
  // victim set) leaks into the scan alerts; the 2D sketches expose its
  // concentrated secondary dimension and remove it (paper Sec. 4).
  std::vector<Alert> kept;
  kept.reserve(alerts.size());
  for (const Alert& a : alerts) {
    if (a.type == AttackType::kVerticalScan) {
      // A true vertical scan spreads over many Dports.
      if (bank.twod_sipdip_dport().classify(a.key, config_.twod_top_p,
                                            config_.twod_phi, scale) ==
          ColumnShape::kConcentrated) {
        continue;  // flooding-like: drop from the scan list
      }
    } else if (a.type == AttackType::kHorizontalScan) {
      // A true horizontal scan spreads over many DIPs.
      if (bank.twod_sipdport_dip().classify(a.key, config_.twod_top_p,
                                            config_.twod_phi, scale) ==
          ColumnShape::kConcentrated) {
        continue;
      }
    }
    kept.push_back(a);
  }
  return kept;
}

std::vector<Alert> HifindDetector::phase3(const SketchBank& bank,
                                          double scale,
                                          const CounterGrid* os_error,
                                          const std::vector<Alert>& alerts) {
  persistence_filter_.begin_interval();
  std::vector<Alert> kept;
  kept.reserve(alerts.size());
  std::unordered_set<std::uint32_t> surviving_victims;
  for (const Alert& a : alerts) {
    if (a.type != AttackType::kSynFlooding) {
      continue;  // victim-keyed floods first; dependents in a second pass
    }
    // Ratio heuristic: congestion leaves some SYN/ACKs; floods leave none.
    const double syn_now = bank.os_dip_dport().estimate(a.key, scale);
    const double unresp_now = bank.verif_dip_dport().estimate(a.key, scale);
    const bool ratio_ok = ratio_filter_.keep(syn_now, unresp_now);
    // Misconfiguration heuristic: real DoS targets a live service.
    const bool service_ok =
        bank.synack_dip_dport().estimate(a.key, *lifetime_, scale) >=
        config_.min_service_history;
    // SYN-surge heuristic: a flood raises #SYN itself; a failed/congested
    // server has normal arrivals that merely go unanswered.
    const bool surge_ok =
        os_error == nullptr ||
        bank.os_dip_dport().estimate(a.key, *os_error) >=
            config_.min_syn_surge_fraction * a.magnitude;
    // Persistence heuristic: attacks last; track runs for every candidate so
    // a flood filtered this interval still builds history.
    const bool persist_ok = persistence_filter_.observe(a.key);
    if (ratio_ok && service_ok && surge_ok && persist_ok) {
      kept.push_back(a);
      surviving_victims.insert(a.dip().addr);
    }
  }
  persistence_filter_.end_interval();

  // Second pass: scan alerts pass through; a non-spoofed flooding alert is
  // kept only if the victim that linked its source into FLOODING_SIP_SET
  // itself survived the heuristics — if the "flood" was really a
  // misconfiguration or congestion event, its per-attacker echoes must go
  // with it.
  for (const Alert& a : alerts) {
    if (a.type == AttackType::kSynFlooding) continue;
    if (a.type == AttackType::kNonSpoofedSynFlooding) {
      const auto it = flooding_sip_victim_.find(a.sip().addr);
      if (it == flooding_sip_victim_.end() ||
          !surviving_victims.contains(it->second)) {
        continue;
      }
    }
    kept.push_back(a);
  }
  return kept;
}

void HifindDetector::fold_history(const KarySketch& synack) {
  const CounterGrid32& grid = synack.grid();
  if (!lifetime_) {
    lifetime_config_ = synack.config();
    lifetime_.emplace(grid.rows(), grid.cols(), 0);
  } else if (!(lifetime_config_ == synack.config())) {
    throw std::invalid_argument(
        "HifindDetector: SYN/ACK sketch has a different shape or seed");
  }
  lifetime_->add_widened(grid);
}

void HifindDetector::reset() {
  lifetime_.reset();
  f_sip_dport_.reset();
  f_dip_dport_.reset();
  f_sip_dip_.reset();
  fv_sip_dport_.reset();
  fv_dip_dport_.reset();
  fv_sip_dip_.reset();
  f_os_.reset();
  persistence_filter_ = PersistenceFilter(config_.min_persist_intervals);
}

}  // namespace hifind
