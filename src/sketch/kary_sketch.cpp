#include "sketch/kary_sketch.hpp"

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
      grid_(config.num_stages, config.num_buckets, 0) {
  hashes_.reserve(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    hashes_.emplace_back(mix64(config_.seed) ^ mix64(h + 0x9e37u),
                         config_.num_buckets);
  }
}

// Never inlined: update_batch() calls it per op, so the scalar and batch
// paths run one copy of this code, and their rates differ only by the
// caller's loop, never by where the linker placed two copies of the per-op
// loop.
[[gnu::noinline]] void KarySketch::update(std::uint64_t key, double delta) {
  double* counters = grid_.data();
  double* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counters[bucket_index(h, key)] += delta;
    sums[h] += delta;
  }
  grid_.count_updates(1);
}

void KarySketch::update_batch(std::span<const KeyDelta> ops) {
  for (const auto& op : ops) update(op.key, op.delta);
}

double KarySketch::estimate(std::uint64_t key) const {
  return grid_.estimate([&](std::size_t h) { return bucket_index(h, key); });
}

}  // namespace hifind
