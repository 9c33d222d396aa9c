// k-ary sketch (Krishnamurthy, Sen, Zhang, Chen — IMC 2003).
//
// A k-ary sketch is H independent hash tables ("stages") of K counters each.
// UPDATE adds a signed value to one counter per stage; ESTIMATE reconstructs a
// key's aggregate with the mean-corrected median estimator; COMBINE sums
// same-shaped sketches (the linearity that lets HiFIND aggregate sketches
// across routers and run EWMA forecasting directly in sketch space). This
// class is also used as the "original sketch" (OS) and as the verification
// sketch that screens reversible-sketch inference output.
//
// Counter storage and the linear algebra live in the sketch's int32 counter
// grid (counter_grid.hpp); this class owns the hash family, through which it
// also reads a double grid of its shape: a forecast error or the lifetime
// SYN/ACK history the detector keeps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "sketch/counter_grid.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

/// Shape parameters of a k-ary sketch.
struct KarySketchConfig {
  std::size_t num_stages{6};    ///< H: independent hash tables (paper: 6)
  std::size_t num_buckets{1u << 14};  ///< K: counters per stage (paper OS: 2^14)
  std::uint64_t seed{1};        ///< hash-family seed; equal seeds => combinable

  bool operator==(const KarySketchConfig&) const = default;
};

class KarySketch : public LinearSketch<KarySketch> {
 public:
  explicit KarySketch(const KarySketchConfig& config);

  /// Adds `delta` to the key's counter in every stage. O(H) counter adds;
  /// the H bucket indices come from one stage-transposed table load per live
  /// key byte (StagedTabulation) on power-of-two shapes.
  void update(std::uint64_t key, std::int32_t delta);

  /// Applies a block of updates in order, bit-identical to update() per
  /// operand. The OR of the block's keys bounds the live key bytes, so a
  /// block of 48-bit keys costs 6 table loads per operand for all H stages.
  /// No prefetch: every k-ary shape in use (at most 6 x 2^14 counters,
  /// 384 KiB) stays cache-resident for a sketch's whole turn in SketchBank's
  /// sketch-major record_ops.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate of the key's aggregate value:
  /// per stage, (bucket − sum/K) / (1 − 1/K); the median over stages.
  /// Unbiased and sharply concentrated when K >> number of heavy keys.
  /// Counters are read as scale × value (CounterGrid::estimate).
  double estimate(std::uint64_t key, double scale = 1.0) const;

  /// The same estimate (one code path) from `counters`, a double grid of
  /// this sketch's shape (unchecked): a forecast error, the lifetime history.
  double estimate(std::uint64_t key, const CounterGrid& counters,
                  double scale = 1.0) const;

  /// True if `other` was built with the same config (shape AND seed), which
  /// is the precondition for linear combination.
  bool combinable_with(const KarySketch& other) const {
    return config_ == other.config_;
  }

  const KarySketchConfig& config() const { return config_; }
  std::size_t num_stages() const { return config_.num_stages; }
  std::size_t num_buckets() const { return config_.num_buckets; }

  /// Counters, stage sums and the linear algebra (see LinearSketch for
  /// accumulate/clear/combine/combine_into/load_counters).
  const CounterGrid32& grid() const { return grid_; }
  CounterGrid32& grid() { return grid_; }

  /// Total of one stage's counters.
  double stage_sum(std::size_t stage) const { return grid_.stage_sum(stage); }

  /// Memory accesses (counter reads+writes) a single update performs: H.
  std::size_t accesses_per_update() const { return config_.num_stages; }

 private:
  /// update()'s adds, with the key's live bytes bounded by `live`.
  void add(std::uint64_t key, int live, std::int32_t delta) {
    std::int32_t* counters = grid_.data();
    std::int32_t* sums = grid_.sums();
    const std::size_t K = config_.num_buckets;
    hashes_.for_each_bucket(key, live, [&](std::size_t h, std::size_t b) {
      counter::add(counters[h * K + b], delta);
      counter::add(sums[h], delta);
    });
  }

  /// estimate() over `counters` (this grid or a double grid of its shape).
  template <class Grid>
  double estimate_in(const Grid& counters, std::uint64_t key,
                     double scale) const;

  KarySketchConfig config_;
  StagedTabulation hashes_;  // one TabulationHash per stage
  CounterGrid32 grid_;       // H x K, no tail
};

}  // namespace hifind
