// Two-dimensional k-ary sketch (the paper's Sec. 4 contribution).
//
// Motivation: after reverse inference names an anomalous {SIP,DIP} pair, is
// it a SYN flood (un-responded SYNs concentrated on 1-2 destination ports) or
// a vertical scan (spread over many ports)? A 1D sketch cannot answer — it
// aggregated the ports away. The 2D sketch keeps H independent Kx-by-Ky
// matrices: the x-hash of the primary key selects a column, the y-hash of the
// secondary key a row. UPDATE touches one cell per matrix (5 memory accesses
// for H = 5 — paper Sec. 5.5.2). Classification reads the column selected by
// the primary key and tests how concentrated its mass is: if the top-p cells
// hold more than a fraction phi of the column total in a majority of the H
// matrices, the secondary dimension is concentrated (flooding-like);
// otherwise it is spread (scan-like).
//
// HiFIND instantiates two of these: {SIP,DIP} x {Dport} to split vertical
// scans from non-spoofed floods, and {SIP,Dport} x {DIP} to split horizontal
// scans from floods. Linearity (COMBINE) holds exactly as for 1D sketches:
// two same-config sketches sum as grids (CounterGrid::accumulate).
// Like every sketch it records into int32 counters; the detector only
// classifies its columns, never forecasts them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "sketch/counter_grid.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

/// Shape parameters of a 2D sketch: 1-8 stages, and Kx and Ky each a power
/// of two in [2, 2^16], the shapes its stage-transposed hash tables serve
/// (the constructor throws std::invalid_argument on any other).
struct Sketch2dConfig {
  std::size_t num_stages{5};     ///< H (paper: 5)
  std::size_t x_buckets{1u << 12};  ///< Kx: columns (paper: 2^12)
  std::size_t y_buckets{64};     ///< Ky: rows per column (paper: 64)
  std::uint64_t seed{1};

  bool operator==(const Sketch2dConfig&) const = default;
};

/// Verdict of the column-concentration test.
enum class ColumnShape : std::uint8_t {
  kConcentrated,  ///< mass on few rows — flooding-like
  kSpread,        ///< mass across many rows — scan-like
};

class TwoDSketch {
 public:
  explicit TwoDSketch(const Sketch2dConfig& config);

  /// Adds `delta` at (x_key, y_key): one cell per matrix.
  void update(std::uint64_t x_key, std::uint64_t y_key, std::int32_t delta);

  /// Applies a block of updates, bit-identical to update() per operand in
  /// order: it computes a chunk's cell indices first (prefetching the cell
  /// lines), then applies the deltas.
  void update_batch(std::span<const KeyDelta2d> ops);

  /// The column selected by x_key in one matrix: Ky cell values, each read
  /// as scale × cell.
  std::vector<double> column(std::size_t stage, std::uint64_t x_key,
                             double scale = 1.0) const;

  /// Concentration test for one matrix: sum of the largest `top_p` cells
  /// exceeds `phi` times the column total. Columns with non-positive total
  /// (no un-responded-SYN mass) report kSpread.
  ColumnShape classify_column(std::size_t stage, std::uint64_t x_key,
                              std::size_t top_p, double phi,
                              double scale = 1.0) const;

  /// Majority vote of classify_column over all H matrices.
  /// Paper defaults: top_p = 5 of Ky = 64, phi = 0.8.
  ColumnShape classify(std::uint64_t x_key, std::size_t top_p = 5,
                       double phi = 0.8, double scale = 1.0) const;

  const Sketch2dConfig& config() const { return config_; }

  /// The cells as a grid with no collect region (no stage sums): the grid's
  /// sum and whole-array operations, and no heavy-bucket scan.
  const CounterGrid32& grid() const { return grid_; }
  CounterGrid32& grid() { return grid_; }

  std::size_t accesses_per_update() const { return config_.num_stages; }

 private:
  /// All H cell indices of a key pair from the stage-transposed tables;
  /// x_live/y_live bound the keys' live bytes.
  void cell_indices(std::uint64_t x_key, int x_live, std::uint64_t y_key,
                    int y_live, std::size_t* out) const {
    std::size_t row[StagedTabulation::kMaxStages];
    y_hashes_.for_each_bucket(
        y_key, y_live, [&](std::size_t h, std::size_t r) { row[h] = r; });
    x_hashes_.for_each_bucket(
        x_key, x_live, [&](std::size_t h, std::size_t col) {
          out[h] = (h * config_.x_buckets + col) * config_.y_buckets + row[h];
        });
  }

  Sketch2dConfig config_;
  StagedTabulation x_hashes_;
  StagedTabulation y_hashes_;
  CounterGrid32 grid_;  // stage-major, then column-major; all tail
};

}  // namespace hifind
