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

template <class C>
BasicKarySketch<C>::BasicKarySketch(const KarySketchConfig& config)
    : config_(validated(config)),
      hashes_(config_.seed, 0x9e37u, config_.num_stages, config_.num_buckets),
      grid_(config.num_stages, config.num_buckets, 0) {}

template <class C>
void BasicKarySketch<C>::update(std::uint64_t key, C delta) {
  add(key, StagedTabulation::live_bytes(key), delta);
  grid_.count_updates(1);
}

template <class C>
void BasicKarySketch<C>::update_batch(std::span<const BasicKeyDelta<C>> ops) {
  std::uint64_t keys_or = 0;
  for (const auto& op : ops) keys_or |= op.key;
  const int live = StagedTabulation::live_bytes(keys_or);
  for (const auto& op : ops) add(op.key, live, op.delta);
  grid_.count_updates(ops.size());
}

template <class C>
double BasicKarySketch<C>::estimate(std::uint64_t key, double scale) const {
  const std::size_t K = config_.num_buckets;
  if (!hashes_.staged()) {
    return grid_.estimate(
        [&](std::size_t h) { return h * K + hashes_.stage(h).bucket(key); },
        scale);
  }
  std::array<std::size_t, StagedTabulation::kMaxStages> at;
  hashes_.for_each_bucket(
      key, StagedTabulation::live_bytes(key),
      [&](std::size_t h, std::size_t b) { at[h] = h * K + b; });
  return grid_.estimate([&](std::size_t h) { return at[h]; }, scale);
}

template class BasicKarySketch<double>;
template class BasicKarySketch<std::int32_t>;

}  // namespace hifind
