// Compact invertible sketch (Tang/Huang/Lee-style, arXiv:1910.10441):
// UPDATE/ESTIMATE/COMBINE with O(1)-per-bucket REVERSE.
//
// The reversible sketch (reversible_sketch.hpp) buys invertibility with
// modular hashing and pays for it at detection time: reversing a heavy
// interval is a DFS over per-word candidate sets whose cost grows with the
// number of concurrent anomalies (cross-product "near collisions" included).
// The compact invertible sketch instead EMBEDS the key material in the
// bucket itself: alongside each bucket's value counter it keeps one counter
// per key bit, and every update adds its delta to the value counter and to
// the counters of the key's set bits. Extraction is then direct — for a
// heavy bucket, bit b of the dominant key is 1 iff bitsum[b] > value/2
// (majority decode) — O(key_bits) per heavy bucket, no candidate sweep, no
// cross-product, no per-stage intersection search.
//
// One deliberate deviation from the literal paper structure: Tang et al.'s
// bucket cells carry a majority-vote <key, count> pair whose final state
// depends on update ORDER and whose merge is lossy. This repo's shard merge
// and multi-router aggregation contracts require exact COMBINE linearity
// (bit-identical serial-vs-sharded alerts), so we use the linear
// group-testing (Deltoid/CountSketch-style) form of the same idea: every
// per-bucket counter is a plain linear accumulator, so the whole sketch is
// one flat int32 counter array and COMBINE is one exact whole-array grid sum
// — order-independent, shard-mergeable, forecastable with the fused
// kernels. Decode stays O(key_bits) per bucket. The per-set-bit update of a
// bucket's bit run is one masked vector add per key byte
// (simd::add_bit_run).
//
// Layout (one flat array, stage-major):
//   [0, H*K)                     value counters (the "collect region" the
//                                fused forecaster kernels threshold-scan)
//   [H*K, H*K*(1+key_bits))      bit counters, bucket-major: bucket (h, i)
//                                owns the key_bits-long run starting at
//                                H*K + (h*K + i)*key_bits
// In CounterGrid terms the value counters are the H x K collect region and
// the bit counters the tail, so the stage sums cover the VALUE region only —
// exactly the quantity the k-ary mean-corrected estimator and the
// heavy-bucket cut need. Bit counters roll along under the same whole-array
// kernels (they are linear in the same updates), so a forecast-error grid
// decodes the same way the recorded grid does.
//
// Estimation uses full-key tabulation hashing per stage (no mangling, no
// word splitting) with the k-ary mean-corrected median estimator, so its
// accuracy profile matches the k-ary sketch at equal H x K. The price of
// O(1) reversal is update cost (1 + key_bits counter adds per stage instead
// of 1) and memory ((1 + key_bits) x the value-only footprint) — the
// reversal-cost model in DESIGN.md quantifies the trade.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "sketch/counter_grid.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

/// Shape parameters of a compact invertible sketch. Fewer, larger buckets
/// than the reversible shapes: each bucket costs (1 + key_bits) counters, and
/// decode needs the dominant key to carry a majority of its bucket's mass,
/// which low collision pressure (large K) provides.
struct CompactInvertibleConfig {
  int key_bits{48};           ///< n: key width, in [8, 64]
  std::size_t num_stages{3};  ///< H: independent hash stages, in [1, 8]
  int bucket_bits{12};        ///< log2(K), in [1, 16]
  std::uint64_t seed{1};      ///< hash seed; equal seeds => combinable

  std::size_t num_buckets() const { return std::size_t{1} << bucket_bits; }
  /// Counters per bucket: 1 value counter + key_bits bit counters.
  std::size_t words_per_bucket() const {
    return 1 + static_cast<std::size_t>(key_bits);
  }

  bool operator==(const CompactInvertibleConfig&) const = default;
};

/// Returns `config`, or throws std::invalid_argument if it is not a shape
/// the compact sketch accepts (the check its constructor runs).
const CompactInvertibleConfig& validated(const CompactInvertibleConfig& config);

class CompactInvertibleSketch {
 public:
  /// The stage cap of the hash table — hot paths use fixed stack scratch.
  static constexpr std::size_t kMaxStages = StagedTabulation::kMaxStages;

  /// Validates the shape and builds the per-stage tabulation hash family.
  /// Throws std::invalid_argument on inconsistent parameters.
  explicit CompactInvertibleSketch(const CompactInvertibleConfig& config);

  /// Adds `delta` to the key's value counter and to each set key bit's
  /// counter, in every stage: H * (1 + popcount(key)) counter adds. The H
  /// bucket indices come from one stage-transposed table load per live key
  /// byte (StagedTabulation).
  void update(std::uint64_t key, std::int32_t delta);

  /// Applies a block of updates, prefetching each operand's bucket run
  /// during an index pass whose live key bytes the OR of the block's keys
  /// bounds. Bit-identical to update() per operand in order.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate over the VALUE counters (the k-ary
  /// estimator; bit counters play no part in estimation).
  double estimate(std::uint64_t key, double scale = 1.0) const;

  /// The same estimate from `counters`, a double grid of this sketch's shape
  /// (unchecked: CompactExtraction checks it once at begin()).
  double estimate(std::uint64_t key, const CounterGrid& counters,
                  double scale = 1.0) const;

  /// Bucket index of a key in one stage.
  std::size_t bucket_of(std::size_t stage, std::uint64_t key) const {
    return hashes_.bucket(stage, key);
  }

  /// O(key_bits) direct candidate extraction from one bucket of `counters`
  /// (a double grid of this sketch's shape, unchecked): majority decode of
  /// the embedded bit counters against the value counter. The returned key
  /// is the bucket's dominant key whenever one key carries a majority of the
  /// bucket's mass; otherwise it is noise — always screen with estimate()
  /// (and a verification sketch) before trusting it.
  std::uint64_t decode_bucket(const CounterGrid& counters, std::size_t stage,
                              std::size_t bucket) const;

  const CompactInvertibleConfig& config() const { return config_; }

  /// Counters (value region, then bit tail) and stage sums; the sum and
  /// every whole-array operation run on the grid, value AND bit counters.
  const CounterGrid32& grid() const { return grid_; }
  CounterGrid32& grid() { return grid_; }

  /// Counter memory accesses per update: H * (1 + key_bits) in the worst
  /// case (all key bits set) — the honest hardware figure for this backend.
  std::size_t accesses_per_update() const {
    return config_.num_stages * config_.words_per_bucket();
  }

 private:
  /// Start of bucket (h, i)'s bit-counter run in the flat array.
  std::size_t bit_base(std::size_t stage, std::size_t bucket) const {
    const std::size_t value = stage * config_.num_buckets() + bucket;
    return value_len_ + value * static_cast<std::size_t>(config_.key_bits);
  }

  /// update()'s adds for one operand whose per-stage buckets are b[0..H).
  void add(const std::size_t* b, std::uint64_t key, std::int32_t delta);

  /// estimate() over `counters` (this grid or a double grid of its shape).
  template <class Grid>
  double estimate_in(const Grid& counters, std::uint64_t key,
                     double scale) const;

  /// The key bits update() records, masked to key_bits.
  std::uint64_t key_bits_of(std::uint64_t key) const {
    return config_.key_bits == 64
               ? key
               : key & ((std::uint64_t{1} << config_.key_bits) - 1);
  }

  CompactInvertibleConfig config_;
  StagedTabulation hashes_;             // every stage's full-key hash
  std::size_t value_len_;               // H*K: size of the value region
  CounterGrid32 grid_;                  // H x K values, key-bit tail
};

/// Direct extraction — the compact backend's REVERSE, with the
/// StreamingInference surface (begin / run / take_result) and the same
/// deterministic degradation semantics:
///   * buckets are visited in a fixed order (stage-major, the given
///     ascending-bucket lists), so the emitted key set is a pure function of
///     (sketch, counters, threshold, options, stage_buckets);
///   * work is metered in search units (one bucket decode = 1 + key words,
///     one candidate screen = 2 — commensurate with the DFS meter), so
///     max_work truncation is identical at any thread count;
///   * max_heavy_per_stage keeps the LARGEST buckets with the same
///     value-descending / index-ascending tie-break as the DFS path;
///   * duplicate decodes (the same key recovered from several stages) are
///     emitted once, at their first appearance.
/// stage_slack does not apply: buckets decode independently, there is no
/// cross-stage intersection to relax.
class CompactExtraction {
 public:
  CompactExtraction() = default;
  CompactExtraction(const CompactExtraction&) = delete;
  CompactExtraction& operator=(const CompactExtraction&) = delete;

  /// Prepares extraction from `counters`, a double grid of `sketch`'s shape
  /// read through its hashing, starting from precomputed per-stage
  /// heavy-bucket lists (ascending bucket ids — the format heavy_buckets()
  /// and the forecaster step fill). Throws std::invalid_argument if
  /// `counters` has another shape. The sketch and the grid must outlive the
  /// run; `options` is copied.
  void begin(const CompactInvertibleSketch& sketch,
             const CounterGrid& counters, double threshold,
             const InferenceOptions& options, StageBuckets stage_buckets);

  /// As above, but scans the value counters for the heavy buckets itself.
  void begin(const CompactInvertibleSketch& sketch,
             const CounterGrid& counters, double threshold,
             const InferenceOptions& options);

  /// Runs extraction to completion: every heavy bucket decoded,
  /// candidate-capped, or out of budget.
  void run();

  /// Moves the finished result out; the engine is then ready for the next
  /// begin().
  InferenceResult take_result();

 private:
  const CompactInvertibleSketch* sketch_{nullptr};
  const CounterGrid* counters_{nullptr};
  double threshold_{0.0};
  InferenceOptions options_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint64_t> seen_;  ///< sorted-unique decoded keys
  InferenceResult result_;
};

/// One-shot extraction (runs CompactExtraction to completion).
InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options = {});
InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets);

}  // namespace hifind
