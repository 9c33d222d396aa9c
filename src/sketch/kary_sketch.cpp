#include "sketch/kary_sketch.hpp"

#include <array>
#include <stdexcept>

namespace hifind {
namespace {

const KarySketchConfig& validated(const KarySketchConfig& config) {
  if (config.num_stages == 0 || config.num_buckets < 2) {
    throw std::invalid_argument("KarySketch needs >=1 stage and >=2 buckets");
  }
  return config;
}

}  // namespace

KarySketch::KarySketch(const KarySketchConfig& config)
    : config_(validated(config)),
      hashes_(config_.seed, 0x9e37u, config_.num_stages, config_.num_buckets),
      grid_(config.num_stages, config.num_buckets, 0) {}

void KarySketch::update(std::uint64_t key, std::int32_t delta) {
  add(key, StagedTabulation::live_bytes(key), delta);
  grid_.count_updates(1);
}

void KarySketch::update_batch(std::span<const KeyDelta> ops) {
  std::uint64_t keys_or = 0;
  for (const auto& op : ops) keys_or |= op.key;
  const int live = StagedTabulation::live_bytes(keys_or);
  for (const auto& op : ops) add(op.key, live, op.delta);
  grid_.count_updates(ops.size());
}

template <class Grid>
double KarySketch::estimate_in(const Grid& counters, std::uint64_t key,
                               double scale) const {
  const std::size_t K = config_.num_buckets;
  if (!hashes_.staged()) {
    return counters.estimate(
        [&](std::size_t h) { return h * K + hashes_.stage(h).bucket(key); },
        scale);
  }
  std::array<std::size_t, StagedTabulation::kMaxStages> at;
  hashes_.for_each_bucket(
      key, StagedTabulation::live_bytes(key),
      [&](std::size_t h, std::size_t b) { at[h] = h * K + b; });
  return counters.estimate([&](std::size_t h) { return at[h]; }, scale);
}

double KarySketch::estimate(std::uint64_t key, double scale) const {
  return estimate_in(grid_, key, scale);
}

double KarySketch::estimate(std::uint64_t key, const CounterGrid& counters,
                            double scale) const {
  return estimate_in(counters, key, scale);
}

}  // namespace hifind
