#include "sketch/kary_sketch.hpp"

#include <array>

namespace hifind {
namespace {

const KarySketchConfig& validated(const KarySketchConfig& config) {
  StagedTabulation::check_shape("KarySketch", config.num_stages,
                                config.num_buckets);
  return config;
}

}  // namespace

KarySketch::KarySketch(const KarySketchConfig& config)
    : config_(validated(config)),
      hashes_(config_.seed, 0x9e37u, config_.num_stages, config_.num_buckets),
      grid_(config.num_stages, config.num_buckets, 0) {}

void KarySketch::update(std::uint64_t key, std::int32_t delta) {
  add(key, StagedTabulation::live_bytes(key), delta);
}

void KarySketch::update_batch(std::span<const KeyDelta> ops) {
  std::uint64_t keys_or = 0;
  for (const auto& op : ops) keys_or |= op.key;
  const int live = StagedTabulation::live_bytes(keys_or);
  for (const auto& op : ops) add(op.key, live, op.delta);
}

template <class Grid>
double KarySketch::estimate_in(const Grid& counters, std::uint64_t key,
                               double scale) const {
  const std::size_t K = config_.num_buckets;
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
