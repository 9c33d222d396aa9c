#include "sketch/kary_sketch.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

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

// Never inlined: update_batch() calls it per op on cache-resident shapes,
// so the scalar and batch paths run one copy of this code (see there).
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
  constexpr std::size_t kMaxStagesVec = 16;
  // Below this footprint the apply pass hits L2 anyway and ANY index
  // staging loses to the plain scalar loop (measured: 0.96x on the 6x2^14
  // k-ary shape). Small sketches therefore take the scalar loop; the
  // vectorized precomputation is reserved for cache-busting shapes (e.g.
  // RS64's 3 MiB array) where the flat index array feeds a deep prefetch
  // pipeline. SketchBank's sketch-major record_ops keeps these counters
  // resident for a sketch's whole turn, which is exactly the regime this
  // routing assumes. Shapes the staged index buffer or its u32 flat indices
  // can't hold take the scalar loop too.
  constexpr std::size_t kPrefetchMinBytes = std::size_t{2} << 20;
  const std::size_t H = config_.num_stages;
  double* counters = grid_.data();
  double* sums = grid_.sums();
  if (H > kMaxStagesVec || grid_.memory_bytes() < kPrefetchMinBytes ||
      grid_.size() > std::numeric_limits<std::uint32_t>::max()) {
    // update() per op: the same adds in the same order, through the one
    // copy of the code the scalar path runs, so on these shapes batch and
    // scalar rates differ only by the caller's loop, never by where the
    // linker placed two copies of the per-op loop.
    for (const auto& op : ops) update(op.key, op.delta);
    return;
  }
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kAhead = 16;  // ops of prefetch lead in the apply loop
  const std::size_t K = config_.num_buckets;
  std::uint64_t keys[kChunk];
  std::uint64_t hbuf[kChunk];
  std::uint32_t idx[kChunk * kMaxStagesVec];
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) keys[j] = ops[base + j].key;
    for (std::size_t h = 0; h < H; ++h) {
      const TabulationHash& th = hashes_[h];
      simd::tab_hash64(keys, n, th.table_data(), 8, hbuf);
      const std::size_t off = h * K;
      for (std::size_t j = 0; j < n; ++j) {
        idx[j * H + h] = static_cast<std::uint32_t>(off + th.fold(hbuf[j]));
      }
    }
    const std::size_t lead = std::min(kAhead, n);
    for (std::size_t j = 0; j < lead; ++j) {
      for (std::size_t h = 0; h < H; ++h) {
        prefetch_write(&counters[idx[j * H + h]]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kAhead < n) {
        for (std::size_t h = 0; h < H; ++h) {
          prefetch_write(&counters[idx[(j + kAhead) * H + h]]);
        }
      }
      const double delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        counters[idx[j * H + h]] += delta;
        sums[h] += delta;
      }
    }
    grid_.count_updates(n);
  }
}

double KarySketch::estimate(std::uint64_t key) const {
  return grid_.estimate([&](std::size_t h) { return bucket_index(h, key); });
}

std::vector<double> KarySketch::stage_values(std::uint64_t key) const {
  std::vector<double> v(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    v[h] = grid_.counters()[bucket_index(h, key)];
  }
  return v;
}

}  // namespace hifind
