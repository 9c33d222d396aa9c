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

template <class C>
BasicKarySketch<C>::BasicKarySketch(const KarySketchConfig& config)
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
template <class C>
[[gnu::noinline]] void BasicKarySketch<C>::update(std::uint64_t key,
                                                  C delta) {
  C* counters = grid_.data();
  C* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counter::add(counters[bucket_index(h, key)], delta);
    counter::add(sums[h], delta);
  }
  grid_.count_updates(1);
}

template <class C>
void BasicKarySketch<C>::update_batch(std::span<const BasicKeyDelta<C>> ops) {
  for (const auto& op : ops) update(op.key, op.delta);
}

template <class C>
double BasicKarySketch<C>::estimate(std::uint64_t key, double scale) const {
  return grid_.estimate([&](std::size_t h) { return bucket_index(h, key); },
                        scale);
}

template class BasicKarySketch<double>;
template class BasicKarySketch<std::int32_t>;

}  // namespace hifind
