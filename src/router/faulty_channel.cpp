#include "router/faulty_channel.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace hifind {

FaultyChannel::FaultyChannel(std::size_t num_routers, std::uint64_t seed)
    : routers_(num_routers),
      rng_(mix64(seed ^ 0xfa017c4a9e2b63d5ULL), mix64(seed)) {
  if (num_routers == 0) {
    throw std::invalid_argument("FaultyChannel needs >=1 router");
  }
}

void FaultyChannel::set_plan(std::size_t router, const FaultPlan& plan) {
  routers_.at(router).plan = plan;
}

void FaultyChannel::set_outage(std::size_t router, std::uint64_t first,
                               std::uint64_t last) {
  routers_.at(router).outage_first = first;
  routers_.at(router).outage_last = last;
}

void FaultyChannel::ship(std::size_t router, std::uint64_t interval,
                         std::vector<std::uint8_t> frame) {
  routers_.at(router).frames[interval] = std::move(frame);
}

void FaultyChannel::advance_to(std::uint64_t interval) { now_ = interval; }

std::optional<std::vector<std::uint8_t>> FaultyChannel::fetch(
    std::size_t router, std::uint64_t interval) {
  PerRouter& r = routers_.at(router);
  const FaultPlan& plan = r.plan;

  if (interval >= r.outage_first && interval <= r.outage_last) {
    ++fetches_suppressed_;
    return std::nullopt;
  }
  const auto it = r.frames.find(interval);
  if (it == r.frames.end()) {
    ++fetches_suppressed_;
    return std::nullopt;
  }
  // Straggler: the frame exists but has not "arrived" yet.
  if (plan.delay_intervals > 0 && now_ < interval + plan.delay_intervals) {
    ++fetches_suppressed_;
    return std::nullopt;
  }
  if (plan.drop_prob > 0.0 && rng_.chance(plan.drop_prob)) {
    ++fetches_suppressed_;
    return std::nullopt;
  }

  // Replay: answer with whatever this router delivered last time.
  if (plan.duplicate_prob > 0.0 && !r.last_delivered.empty() &&
      rng_.chance(plan.duplicate_prob)) {
    return r.last_delivered;
  }
  // Reorder: answer with a neighboring interval's frame if one is shipped.
  if (plan.reorder_prob > 0.0 && rng_.chance(plan.reorder_prob)) {
    auto other = r.frames.find(interval + 1);
    if (other == r.frames.end() && interval > 0) {
      other = r.frames.find(interval - 1);
    }
    if (other != r.frames.end() && other->first != interval) {
      r.last_delivered = other->second;
      return other->second;
    }
  }

  std::vector<std::uint8_t> out = it->second;
  if (plan.corrupt_prob > 0.0 && !out.empty() &&
      rng_.chance(plan.corrupt_prob)) {
    for (std::size_t i = 0; i < plan.corrupt_byte_flips; ++i) {
      const std::size_t pos =
          rng_.bounded(static_cast<std::uint32_t>(out.size()));
      out[pos] ^= static_cast<std::uint8_t>(1u + rng_.bounded(255));
    }
    ++frames_corrupted_;
    return out;  // a corrupt delivery is not a "last delivered" frame
  }
  r.last_delivered = out;
  return out;
}

}  // namespace hifind
