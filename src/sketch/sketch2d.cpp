#include "sketch/sketch2d.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

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

TwoDSketch::TwoDSketch(const Sketch2dConfig& config)
    : config_(validated(config)),
      x_hashes_(config_.seed, 0x1000, config_.num_stages, config_.x_buckets),
      y_hashes_(config_.seed, 0x2000, config_.num_stages, config_.y_buckets),
      staged_(x_hashes_.staged() && y_hashes_.staged()),
      grid_(0, 0, config.num_stages * config.x_buckets * config.y_buckets) {}

void TwoDSketch::update(std::uint64_t x_key, std::uint64_t y_key,
                        std::int32_t delta) {
  std::int32_t* cells = grid_.data();
  const std::size_t H = config_.num_stages;
  if (staged_) {
    std::size_t idx[StagedTabulation::kMaxStages];
    cell_indices(x_key, StagedTabulation::live_bytes(x_key), y_key,
                 StagedTabulation::live_bytes(y_key), idx);
    for (std::size_t h = 0; h < H; ++h) counter::add(cells[idx[h]], delta);
  } else {
    for (std::size_t h = 0; h < H; ++h) {
      counter::add(cells[cell_index(h, x_key, y_key)], delta);
    }
  }
  grid_.count_updates(1);
}

void TwoDSketch::update_batch(std::span<const KeyDelta2d> ops) {
  if (!staged_) {
    for (const auto& op : ops) update(op.x_key, op.y_key, op.delta);
    return;
  }
  std::uint64_t x_or = 0;
  std::uint64_t y_or = 0;
  for (const auto& op : ops) {
    x_or |= op.x_key;
    y_or |= op.y_key;
  }
  const int x_live = StagedTabulation::live_bytes(x_or);
  const int y_live = StagedTabulation::live_bytes(y_or);
  // Index pass, then apply pass, per chunk: each cell index gets a
  // write-prefetch as it lands, so the rest of the index pass overlaps the
  // cell-line misses. The apply loop adds deltas in per-op, per-stage
  // order, as update() does. A short chunk keeps the prefetch-to-use
  // distance inside what the miss buffers can hold (a 256-op chunk would
  // issue 1280 hints and drop most of them).
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kMaxH = StagedTabulation::kMaxStages;
  const std::size_t H = config_.num_stages;
  std::size_t idx[kChunk * kMaxH];
  std::int32_t* cells = grid_.data();
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      const KeyDelta2d& op = ops[base + j];
      std::size_t* at = idx + j * kMaxH;
      cell_indices(op.x_key, x_live, op.y_key, y_live, at);
      for (std::size_t h = 0; h < H; ++h) prefetch_write(&cells[at[h]]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t delta = ops[base + j].delta;
      const std::size_t* at = idx + j * kMaxH;
      for (std::size_t h = 0; h < H; ++h) counter::add(cells[at[h]], delta);
    }
    grid_.count_updates(n);
  }
}

std::vector<double> TwoDSketch::column(std::size_t stage,
                                       std::uint64_t x_key,
                                       double scale) const {
  const std::size_t col = x_hashes_.stage(stage).bucket(x_key);
  const std::size_t base =
      (stage * config_.x_buckets + col) * config_.y_buckets;
  const std::int32_t* first = grid_.data() + base;
  std::vector<double> out(config_.y_buckets);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = scale * counter::widen(first[r]);
  }
  return out;
}

ColumnShape TwoDSketch::classify_column(std::size_t stage,
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

ColumnShape TwoDSketch::classify(std::uint64_t x_key, std::size_t top_p,
                                 double phi, double scale) const {
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

}  // namespace hifind
