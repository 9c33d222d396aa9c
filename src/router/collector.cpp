#include "router/collector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "detect/sketch_wire.hpp"

namespace hifind {

CollectorState::CollectorState(const CollectorConfig& config,
                               SketchBankConfig bank_config, FetchFn fetch)
    : config_(config),
      bank_config_(std::move(bank_config)),
      fetch_(std::move(fetch)),
      consecutive_bad_(config.num_routers, 0),
      quarantined_(config.num_routers, false) {
  if (config_.num_routers == 0) {
    throw std::invalid_argument("CollectorState needs >=1 router");
  }
  if (config_.fetch_attempts_per_poll == 0) {
    throw std::invalid_argument(
        "CollectorState needs >=1 fetch attempt per poll");
  }
  if (!fetch_) {
    throw std::invalid_argument("CollectorState needs a fetch callback");
  }
}

CollectorState::PendingInterval* CollectorState::find_pending(
    std::uint64_t interval) {
  for (auto& p : pending_) {
    if (p.interval == interval) return &p;
  }
  return nullptr;
}

void CollectorState::note_bad_frame(std::size_t router) {
  if (quarantined_[router]) return;
  if (++consecutive_bad_[router] < config_.quarantine_after) return;
  quarantined_[router] = true;
  ++stats_.routers_quarantined;
  for (auto& p : pending_) {
    if (p.shipments[router].status != ShipmentStatus::kReceived) {
      p.shipments[router].status = ShipmentStatus::kQuarantined;
    }
  }
}

bool CollectorState::accept_frame(PendingInterval& asked, std::size_t router,
                                  std::uint32_t header_router,
                                  std::uint64_t header_interval,
                                  SketchBank&& bank) {
  if (header_router != router) {
    ++stats_.frames_mismatched;
    note_bad_frame(router);
    return false;
  }
  if (!(bank.config() == bank_config_)) {
    // A mis-shaped bank would poison the COMBINE; reject before it can.
    ++stats_.frames_wrong_shape;
    note_bad_frame(router);
    return false;
  }
  PendingInterval* target = &asked;
  if (header_interval != asked.interval) {
    // The channel answered with a frame for a different interval (reorder /
    // replay). File it where it belongs if that interval is still open.
    target = find_pending(header_interval);
    if (target == nullptr) {
      ++stats_.frames_stale;
      return false;
    }
    if (target->shipments[router].status == ShipmentStatus::kReceived) {
      ++stats_.frames_duplicate;
      return false;
    }
    ++stats_.frames_reordered;
  } else if (asked.shipments[router].status == ShipmentStatus::kReceived) {
    ++stats_.frames_duplicate;
    return false;
  }
  target->shipments[router].bank = std::move(bank);
  target->shipments[router].status = ShipmentStatus::kReceived;
  ++stats_.frames_received;
  consecutive_bad_[router] = 0;
  return target == &asked;
}

void CollectorState::fetch_into(PendingInterval& due, std::size_t router) {
  Shipment& s = due.shipments[router];
  if (s.status == ShipmentStatus::kReceived ||
      s.status == ShipmentStatus::kQuarantined) {
    return;
  }
  for (std::size_t attempt = 0; attempt < config_.fetch_attempts_per_poll;
       ++attempt) {
    ++stats_.fetch_attempts;
    if (attempt > 0) ++stats_.fetch_retries;
    std::optional<std::vector<std::uint8_t>> bytes =
        fetch_(router, due.interval);
    if (!bytes) continue;  // nothing on the wire yet; retry within budget
    try {
      BankFrame frame = deserialize_frame(*bytes);
      if (accept_frame(due, router, frame.router_id, frame.interval,
                       std::move(frame.bank))) {
        return;
      }
      if (quarantined_[router]) return;
    } catch (const WireError&) {
      ++stats_.frames_corrupt;
      note_bad_frame(router);
      if (quarantined_[router]) return;
    }
  }
  // Retry budget exhausted without this interval's frame: the shipment is
  // now officially a straggler (the deadline decides when it turns missing).
  s.status = ShipmentStatus::kLate;
}

std::vector<FinalizedInterval> CollectorState::poll(std::uint64_t interval) {
  if (started_ && interval < next_due_ - 1) {
    throw std::invalid_argument("CollectorState::poll: interval went back");
  }
  // Register every newly due interval (a caller skipping quiet intervals
  // still gets one pending entry each — routers ship every interval).
  const std::uint64_t from = started_ ? next_due_ : interval;
  for (std::uint64_t iv = from; iv <= interval; ++iv) {
    PendingInterval p;
    p.interval = iv;
    p.first_poll = polls_;
    p.shipments.resize(config_.num_routers);
    for (std::size_t r = 0; r < config_.num_routers; ++r) {
      if (quarantined_[r]) {
        p.shipments[r].status = ShipmentStatus::kQuarantined;
      }
    }
    pending_.push_back(std::move(p));
  }
  started_ = true;
  next_due_ = interval + 1;

  for (auto& p : pending_) {
    for (std::size_t r = 0; r < config_.num_routers; ++r) {
      fetch_into(p, r);
    }
  }
  ++polls_;

  // Finalize strictly from the front: the detector's forecasters need
  // intervals in order, so a complete interval still waits behind an
  // incomplete one that is inside its straggler deadline.
  std::vector<FinalizedInterval> out;
  while (!pending_.empty()) {
    PendingInterval& front = pending_.front();
    const bool complete = std::all_of(
        front.shipments.begin(), front.shipments.end(), [](const Shipment& s) {
          return s.status == ShipmentStatus::kReceived ||
                 s.status == ShipmentStatus::kQuarantined;
        });
    const bool expired = polls_ - front.first_poll > config_.deadline_polls;
    if (!complete && !expired) break;
    out.push_back(finalize(front));
    pending_.pop_front();
  }
  return out;
}

FinalizedInterval CollectorState::finalize(PendingInterval& p) {
  FinalizedInterval f{p.interval, CoverageReport{}, SketchBank(bank_config_),
                      {}};
  f.coverage.routers_total = config_.num_routers;
  std::vector<ShipmentStatus> statuses(config_.num_routers);
  std::vector<const SketchBank*> received;
  for (std::size_t r = 0; r < config_.num_routers; ++r) {
    Shipment& s = p.shipments[r];
    if (s.status == ShipmentStatus::kReceived) {
      f.coverage.routers_combined.push_back(static_cast<std::uint32_t>(r));
      received.push_back(&*s.bank);
    } else {
      if (s.status != ShipmentStatus::kQuarantined) {
        s.status = ShipmentStatus::kMissing;
      }
      f.coverage.routers_missing.push_back(static_cast<std::uint32_t>(r));
    }
    statuses[r] = s.status;
  }
  // With nothing received the partial sum stays the zero bank.
  if (!received.empty()) f.partial_sum.merge_shards(received);
  for (const std::uint32_t r : f.coverage.routers_combined) {
    f.banks.emplace_back(r, std::move(*p.shipments[r].bank));
  }
  f.coverage.fraction =
      static_cast<double>(f.coverage.routers_combined.size()) /
      static_cast<double>(config_.num_routers);
  f.coverage.degraded = !f.coverage.routers_missing.empty();
  if (f.coverage.degraded) ++stats_.intervals_degraded;

  finalized_status_.emplace(p.interval, std::move(statuses));
  while (finalized_status_.size() > kStatusHistory) {
    finalized_status_.erase(finalized_status_.begin());
  }
  return f;
}

ShipmentStatus CollectorState::status(std::size_t router,
                                      std::uint64_t interval) const {
  if (router >= config_.num_routers) {
    throw std::out_of_range("CollectorState::status: bad router");
  }
  for (const auto& p : pending_) {
    if (p.interval == interval) return p.shipments[router].status;
  }
  const auto it = finalized_status_.find(interval);
  if (it == finalized_status_.end()) {
    throw std::out_of_range(
        "CollectorState::status: interval not tracked (never due, or aged "
        "out of the history window)");
  }
  return it->second[router];
}

ResilientAggregator::ResilientAggregator(
    const CollectorConfig& collector_config,
    const SketchBankConfig& bank_config,
    const HifindDetectorConfig& detector_config, CollectorState::FetchFn fetch)
    : collector_(collector_config, bank_config, std::move(fetch)),
      bank_config_(bank_config),
      detector_(detector_config) {}

std::vector<IntervalResult> ResilientAggregator::end_interval(
    std::uint64_t interval) {
  std::vector<IntervalResult> results;
  for (FinalizedInterval& f : collector_.poll(interval)) {
    if (f.coverage.routers_combined.empty()) {
      // Nothing arrived: there is no data to detect on, and feeding the
      // forecasters a zero bank would poison later intervals' baselines.
      IntervalResult r;
      r.interval = f.interval;
      r.coverage = std::move(f.coverage);
      results.push_back(std::move(r));
      continue;
    }
    // A partial sum is rescaled by 1/coverage as the detector reads it
    // (HifindDetector::process): linearity makes that an unbiased
    // full-traffic estimate under the uniform per-packet split, keeping
    // thresholds and forecaster state on a consistent scale.
    results.push_back(
        detector_.process(f.partial_sum, f.interval, std::move(f.coverage)));
  }
  return results;
}

}  // namespace hifind
