#include "sketch/sketch2d.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {
namespace {

const Sketch2dConfig& validated(const Sketch2dConfig& config) {
  if (config.num_stages == 0 || config.x_buckets < 2 || config.y_buckets < 2) {
    throw std::invalid_argument(
        "TwoDSketch needs >=1 stage and >=2 buckets per dimension");
  }
  return config;
}

}  // namespace

template <class C>
BasicTwoDSketch<C>::BasicTwoDSketch(const Sketch2dConfig& config)
    : config_(validated(config)),
      grid_(0, 0, config.num_stages * config.x_buckets * config.y_buckets) {
  x_hashes_.reserve(config_.num_stages);
  y_hashes_.reserve(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    x_hashes_.emplace_back(mix64(config_.seed) ^ mix64(0x1000 + h),
                           config_.x_buckets);
    y_hashes_.emplace_back(mix64(config_.seed) ^ mix64(0x2000 + h),
                           config_.y_buckets);
  }
}

template <class C>
void BasicTwoDSketch<C>::update(std::uint64_t x_key, std::uint64_t y_key,
                                C delta) {
  C* cells = grid_.data();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counter::add(cells[cell_index(h, x_key, y_key)], delta);
  }
  grid_.count_updates(1);
}

template <class C>
void BasicTwoDSketch<C>::update_batch(
    std::span<const BasicKeyDelta2d<C>> ops) {
  constexpr std::size_t kMaxStagesVec = 16;
  const std::size_t H = config_.num_stages;
  if (H > kMaxStagesVec ||
      grid_.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Shapes the staged index buffer or its u32 flat indices can't hold.
    for (const auto& op : ops) update(op.x_key, op.y_key, op.delta);
    return;
  }
  // Vectorized cell-index precomputation: one tab_hash64 pass per stage per
  // dimension, then the fold pair is combined into the flat cell index with a
  // write-prefetch issued as each index lands — the rest of the index pass
  // overlaps the cell-line misses. The apply loop adds deltas in scalar
  // per-op, per-stage order — bit-identical to update() per operand. A short
  // chunk keeps the prefetch-to-use distance inside what the miss buffers
  // can hold (a 256-op chunk would issue 1280 hints and drop most of them).
  constexpr std::size_t kChunk = 32;
  const std::size_t Kx = config_.x_buckets;
  const std::size_t Ky = config_.y_buckets;
  std::uint64_t xkeys[kChunk];
  std::uint64_t ykeys[kChunk];
  std::uint64_t xh[kChunk];
  std::uint64_t yh[kChunk];
  std::uint32_t idx[kChunk * kMaxStagesVec];
  C* cells = grid_.data();
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      xkeys[j] = ops[base + j].x_key;
      ykeys[j] = ops[base + j].y_key;
    }
    for (std::size_t h = 0; h < H; ++h) {
      const TabulationHash& thx = x_hashes_[h];
      const TabulationHash& thy = y_hashes_[h];
      simd::tab_hash64(xkeys, n, thx.table_data(), 8, xh);
      simd::tab_hash64(ykeys, n, thy.table_data(), 8, yh);
      const std::size_t stage_off = h * Kx;
      for (std::size_t j = 0; j < n; ++j) {
        const auto i = static_cast<std::uint32_t>(
            (stage_off + thx.fold(xh[j])) * Ky + thy.fold(yh[j]));
        idx[j * H + h] = i;
        prefetch_write(&cells[i]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const C delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        counter::add(cells[idx[j * H + h]], delta);
      }
    }
    grid_.count_updates(n);
  }
}

template <class C>
std::vector<double> BasicTwoDSketch<C>::column(std::size_t stage,
                                               std::uint64_t x_key,
                                               double scale) const {
  const std::size_t col = x_hashes_[stage].bucket(x_key, config_.x_buckets);
  const std::size_t base =
      (stage * config_.x_buckets + col) * config_.y_buckets;
  const C* first = grid_.data() + base;
  std::vector<double> out(config_.y_buckets);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = scale * counter::widen(first[r]);
  }
  return out;
}

template <class C>
ColumnShape BasicTwoDSketch<C>::classify_column(std::size_t stage,
                                                std::uint64_t x_key,
                                                std::size_t top_p, double phi,
                                                double scale) const {
  std::vector<double> cells = column(stage, x_key, scale);
  // Negative cells (more SYN/ACKs than SYNs from colliding benign flows)
  // carry no attack mass; clamp so they cannot inflate the "spread" verdict.
  double total = 0.0;
  for (auto& c : cells) {
    c = std::max(c, 0.0);
    total += c;
  }
  if (total <= 0.0) return ColumnShape::kSpread;
  top_p = std::min(top_p, cells.size());
  std::partial_sort(cells.begin(),
                    cells.begin() + static_cast<std::ptrdiff_t>(top_p),
                    cells.end(), std::greater<>());
  const double top_sum = std::accumulate(
      cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(top_p), 0.0);
  return top_sum > phi * total ? ColumnShape::kConcentrated
                               : ColumnShape::kSpread;
}

template <class C>
ColumnShape BasicTwoDSketch<C>::classify(std::uint64_t x_key,
                                         std::size_t top_p, double phi,
                                         double scale) const {
  std::size_t concentrated = 0;
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    if (classify_column(h, x_key, top_p, phi, scale) ==
        ColumnShape::kConcentrated) {
      ++concentrated;
    }
  }
  return concentrated * 2 > config_.num_stages ? ColumnShape::kConcentrated
                                               : ColumnShape::kSpread;
}

template class BasicTwoDSketch<std::int32_t>;

}  // namespace hifind
