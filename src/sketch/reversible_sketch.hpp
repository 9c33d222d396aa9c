// Reversible sketch (Schweller et al., IMC 2004 / INFOCOM 2006).
//
// A k-ary sketch answers "how big is key y?" but not "which keys are big?".
// The reversible sketch restores that INFERENCE capability while keeping
// UPDATE/ESTIMATE/COMBINE, by constraining how bucket indices are computed:
//
//  * IP mangling — a bijection on the n-bit key space (common/mangler.hpp)
//    applied first, so real-world key skew cannot concentrate bucket load.
//  * Modular hashing — the mangled key is split into q = n/8 words of 8 bits;
//    each stage hashes every word independently to n_b = log2(K)/q bits and
//    concatenates the sub-indices into the bucket index. A bucket index
//    therefore *constrains each key word separately*, which is what makes
//    reverse inference (reverse_inference.hpp) tractable.
//
// Paper shapes: 48-bit keys ({IP,port}) with 2^12 buckets/stage = 6 words x
// 2 bits; 64-bit keys ({IP,IP}) with 2^16 buckets = 8 words x 2 bits.
//
// The sketch records into int32 counters and reads a double grid of its
// shape (a forecast error, which reverse inference searches) through the
// same hash family.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/mangler.hpp"
#include "sketch/counter_grid.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

/// Shape parameters of a reversible sketch.
struct ReversibleSketchConfig {
  int key_bits{48};          ///< n: key width; must be a multiple of 8, <= 64
  std::size_t num_stages{6}; ///< H (paper: 6)
  int bucket_bits{12};       ///< log2(K); must be a multiple of key_bits/8
  std::uint64_t seed{1};     ///< hash/mangler seed; equal seeds => combinable

  int num_words() const { return key_bits / 8; }
  int bits_per_word() const { return bucket_bits / num_words(); }
  std::size_t num_buckets() const { return std::size_t{1} << bucket_bits; }

  bool operator==(const ReversibleSketchConfig&) const = default;
};

/// Returns `config`, or throws std::invalid_argument if it is not a shape
/// the reversible sketch accepts (the check its constructor runs).
const ReversibleSketchConfig& validated(const ReversibleSketchConfig& config);

class ReversibleSketch : public LinearSketch<ReversibleSketch> {
 public:
  /// Hard upper bound on stages; lets hot paths use fixed stack scratch
  /// instead of heap allocation. All paper configs use H = 6.
  static constexpr std::size_t kMaxStages = 8;

  /// Validates the shape (word divisibility, stages <= kMaxStages) and builds
  /// the hash family. Throws std::invalid_argument on inconsistent parameters.
  explicit ReversibleSketch(const ReversibleSketchConfig& config);

  /// Adds `delta` to the key's bucket in every stage. O(H * q) word-hash
  /// lookups but exactly H counter memory accesses — the figure the paper
  /// reports in Sec. 5.5.2.
  void update(std::uint64_t key, std::int32_t delta);

  /// Applies a block of updates: mangles + modular-hashes every operand
  /// first (prefetching the counter lines), then applies the deltas.
  /// Bit-identical to calling update() per operand in order; the word-hash
  /// work of later keys overlaps the counter-memory latency of earlier ones.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate (same estimator as the k-ary sketch).
  double estimate(std::uint64_t key, double scale = 1.0) const;

  /// The same estimate from `counters`, a double grid of this sketch's shape
  /// (unchecked: StreamingInference checks it once at begin()).
  double estimate(std::uint64_t key, const CounterGrid& counters,
                  double scale = 1.0) const;

  /// Bucket index of a (raw, unmangled) key in one stage.
  std::size_t bucket_of(std::size_t stage, std::uint64_t key) const {
    return index_of_mangled(stage, mangler_.mangle(key));
  }

  /// Bucket index of an already-mangled key in one stage. Exposed for the
  /// inference engine, which works in mangled space throughout.
  std::size_t index_of_mangled(std::size_t stage, std::uint64_t mangled) const;

  bool combinable_with(const ReversibleSketch& other) const {
    return config_ == other.config_;
  }

  const ReversibleSketchConfig& config() const { return config_; }
  const KeyMangler& mangler() const { return mangler_; }

  /// Per-word hash of one stage (inference needs the preimage tables).
  const WordHash& word_hash(std::size_t stage, int word) const {
    return word_hashes_[stage * config_.num_words() + word];
  }

  /// Counters, stage sums and the linear algebra (see LinearSketch).
  const CounterGrid32& grid() const { return grid_; }
  CounterGrid32& grid() { return grid_; }

  /// Raw counter of one stage/bucket.
  double bucket_value(std::size_t stage, std::size_t bucket) const {
    return grid_.at(stage, bucket);
  }

  double stage_sum(std::size_t stage) const { return grid_.stage_sum(stage); }

  /// Counter memory accesses per update: H (one bucket per stage). The
  /// paper's 15/16 figure additionally counts its word-hash SRAM reads; we
  /// report both from bench/accesses_per_packet.
  std::size_t accesses_per_update() const { return config_.num_stages; }
  std::size_t word_hash_reads_per_update() const {
    return config_.num_stages * static_cast<std::size_t>(config_.num_words());
  }

 private:
  /// estimate() over `counters` (this grid or a double grid of its shape).
  template <class Grid>
  double estimate_in(const Grid& counters, std::uint64_t key,
                     double scale) const;

  ReversibleSketchConfig config_;
  KeyMangler mangler_;
  std::vector<WordHash> word_hashes_;  // stage-major, H*q
  /// Modular hashing flattened into per-stage byte tables for
  /// simd::tab_hash64: row p of stage h holds word_hash(h, q-1-p).map(v)
  /// pre-shifted into its disjoint sub-index bit range, so the XOR fold over
  /// key bytes (LSB first) reproduces index_of_mangled() exactly. Layout:
  /// [stage][byte][value], H*q*256 entries.
  std::vector<std::uint64_t> flat_tables_;
  CounterGrid32 grid_;                 // H x K, no tail
};

}  // namespace hifind
