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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/mangler.hpp"
#include "common/mem_policy.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {

struct SketchKernelAccess;

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

class ReversibleSketch {
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
  void update(std::uint64_t key, double delta);

  /// Applies a block of updates: mangles + modular-hashes every operand
  /// first (prefetching the counter lines), then applies the deltas.
  /// Bit-identical to calling update() per operand in order; the word-hash
  /// work of later keys overlaps the counter-memory latency of earlier ones.
  void update_batch(std::span<const KeyDelta> ops);

  /// Mean-corrected median estimate (same estimator as the k-ary sketch).
  double estimate(std::uint64_t key) const;

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

  /// this += coeff * other. Throws std::invalid_argument on shape mismatch.
  void accumulate(const ReversibleSketch& other, double coeff = 1.0);

  /// this *= coeff.
  void scale(double coeff);

  void clear();

  /// COMBINE — linear combination as a new sketch.
  static ReversibleSketch combine(
      std::span<const std::pair<double, const ReversibleSketch*>> terms);

  /// Destination-reuse COMBINE: this = sum ci*Si in place — no sketch
  /// construction, no allocation. `this` may appear only as the FIRST term;
  /// every term must be combinable_with(*this). Hot at interval seal, where
  /// the sharded recorder reduces per-core shard replicas.
  void combine_into(
      std::span<const std::pair<double, const ReversibleSketch*>> terms);

  const ReversibleSketchConfig& config() const { return config_; }
  const KeyMangler& mangler() const { return mangler_; }

  /// Per-word hash of one stage (inference needs the preimage tables).
  const WordHash& word_hash(std::size_t stage, int word) const {
    return word_hashes_[stage * config_.num_words() + word];
  }

  /// Raw counter of one stage/bucket (inference scans these directly).
  double bucket_value(std::size_t stage, std::size_t bucket) const {
    return counters_[stage * config_.num_buckets() + bucket];
  }

  double stage_sum(std::size_t stage) const { return stage_sums_[stage]; }

  std::span<const double> counters() const { return counters_; }

  /// Deserialization support: replaces the counter array (stage sums are
  /// recomputed). Throws std::invalid_argument on size mismatch.
  void load_counters(std::span<const double> counters);

  std::size_t memory_bytes() const { return counters_.size() * sizeof(double); }
  std::size_t memory_bytes_hw() const {
    return counters_.size() * sizeof(std::uint32_t);
  }

  /// Counter memory accesses per update: H (one bucket per stage). The
  /// paper's 15/16 figure additionally counts its word-hash SRAM reads; we
  /// report both from bench/accesses_per_packet.
  std::size_t accesses_per_update() const { return config_.num_stages; }
  std::size_t word_hash_reads_per_update() const {
    return config_.num_stages * static_cast<std::size_t>(config_.num_words());
  }

  std::uint64_t update_count() const { return update_count_; }

 private:
  friend struct SketchKernelAccess;  // fused kernels (sketch_kernels.hpp)

  ReversibleSketchConfig config_;
  KeyMangler mangler_;
  std::vector<WordHash> word_hashes_;  // stage-major, H*q
  /// Modular hashing flattened into per-stage byte tables for
  /// simd::tab_hash64: row p of stage h holds word_hash(h, q-1-p).map(v)
  /// pre-shifted into its disjoint sub-index bit range, so the XOR fold over
  /// key bytes (LSB first) reproduces index_of_mangled() exactly. Layout:
  /// [stage][byte][value], H*q*256 entries.
  std::vector<std::uint64_t> flat_tables_;
  mem::CounterVec counters_;           // stage-major, H*K; hugepage-backed
  std::vector<double> stage_sums_;
  std::uint64_t update_count_{0};
};

}  // namespace hifind
