// Reverse inference for reversible sketches: INFERENCE(S, t).
//
// Given a (typically forecast-error) reversible sketch and a threshold t,
// recover the set of keys whose estimated value exceeds t — without iterating
// the key space. This implements the bucket-intersection search of Schweller
// et al. (INFOCOM 2006):
//
//  1. Per stage, collect the "heavy buckets" whose mean-corrected estimate
//     exceeds t. A culprit key must land in a heavy bucket in (almost) every
//     stage; `stage_slack` (the paper's r) tolerates stages where a culprit's
//     bucket was pulled below threshold by colliding negative mass.
//  2. Depth-first search over the q key-word positions. Because of modular
//     hashing, a heavy bucket constrains each word independently: at word w,
//     the viable byte values are the word-hash preimages of the sub-indices
//     that the still-consistent heavy buckets expose at position w. The DFS
//     state is, per stage, the subset of heavy buckets consistent with the
//     chosen prefix; a branch dies when fewer than H - r stages remain alive.
//     The bucket index concatenates the per-word sub-indices with word 0 in
//     the high bits, so fixing a key prefix fixes the index's top bits: each
//     consistent subset is a contiguous slice of the stage's sorted heavy
//     bucket list, and the search never copies a bucket.
//  3. At a leaf, the surviving word choices form a mangled key; it is
//     unmangled and reported with its sketch estimate.
//
// Output is a small SUPERSET of the true heavy keys: with stage_slack = r,
// keys whose mangled form differs from a heavy key in one word but collides
// in >= H - r stages ("near collisions", O(q * 256 * C(H,r) / 4^(H-r)) of
// them per heavy key) are also emitted. Screen the output against an
// independent verification sketch (a KarySketch over the full key, passed in
// as InferenceOptions::verifier) — its full-key hash family is uncorrelated
// with the modular word hashes, so near collisions carry no mass there and
// are removed.
//
// The search itself is RESUMABLE: StreamingInference holds the DFS state
// explicitly and advances it in bounded work chunks (run_chunk), so the
// detection epoch can spread an attack-heavy bucket-reversal burst across
// idle task-pool slots of the next interval instead of stalling at close,
// and a hard work budget (InferenceOptions::max_work) can stop the search
// at a DETERMINISTIC point: work is metered in search steps, not wall time,
// so the same sketch + options yield the same (possibly truncated) key set
// regardless of chunk size, thread count, or host speed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sketch/reversible_sketch.hpp"

namespace hifind {

/// One recovered heavy key.
struct HeavyKey {
  std::uint64_t key{0};   ///< original (unmangled) key
  double estimate{0.0};   ///< sketch estimate of its value

  bool operator==(const HeavyKey&) const = default;
};

/// Tuning knobs for inference.
struct InferenceOptions {
  /// r: number of stages allowed to miss the heavy-bucket set. 0 = strict
  /// intersection. Paper guidance: 1 for H = 6.
  std::size_t stage_slack{1};
  /// Hard cap on emitted candidates; guards against adversarially dense
  /// heavy-bucket sets blowing up the search. Truncation is reported.
  std::size_t max_candidates{100000};
  /// Optional screen applied to each candidate at the leaves, BEFORE it
  /// counts toward max_candidates. Pass the paired verification sketch's
  /// test here (key, sketch_estimate) -> keep? — with many concurrent
  /// anomalies the raw candidate set contains cross-product artifacts, and
  /// verifying inside the search keeps the output (and the cap) meaningful.
  std::function<bool(std::uint64_t key, double estimate)> verifier;
  /// Cap on heavy buckets considered per stage, keeping the LARGEST ones —
  /// the paper's "detect the top N anomalies" stress-test mode (Sec. 5.5.3).
  /// Bounds the search tree when an interval carries hundreds of anomalies.
  /// Ties on bucket value break toward the lower index, so the kept set is a
  /// deterministic function of the sketch. 0 = unlimited.
  std::size_t max_heavy_per_stage{0};
  /// Hard budget on search work, in deterministic work units (one unit ~ one
  /// heavy bucket in a DFS node's consistent slices, or one leaf screened —
  /// see InferenceResult::work_used). The search stops once the meter reaches
  /// the budget and reports work_exhausted; because the meter advances only
  /// with search steps, the stop point — and therefore the emitted key set —
  /// is identical for any chunk size or thread count. 0 = unlimited.
  std::size_t max_work{0};
};

/// Result of an inference run.
struct InferenceResult {
  std::vector<HeavyKey> keys;
  bool truncated{false};              ///< hit max_candidates
  bool work_exhausted{false};         ///< hit max_work (latency-budget mode)
  std::size_t heavy_bucket_total{0};  ///< sum of per-stage heavy-bucket counts
  /// Heavy buckets dropped by the max_heavy_per_stage top-N cap (0 when the
  /// cap is off or no stage exceeded it).
  std::size_t heavy_buckets_dropped{0};
  /// Work units the search actually spent (grows monotonically with the
  /// search; comparable across runs of the same shape).
  std::size_t work_used{0};

  /// Any degradation at all? (budget tripped, candidates capped, or heavy
  /// buckets dropped). When false, the key set is exactly the unbudgeted
  /// search's output.
  bool degraded() const {
    return truncated || work_exhausted || heavy_buckets_dropped > 0;
  }
};

/// Resumable bucket-reversal search. Usage:
///
///   StreamingInference s;                       // reusable across runs
///   s.begin(sketch, t, options, buckets);       // or the scanning overload
///   while (!s.run_chunk(quantum)) { /* yield / interleave */ }
///   InferenceResult r = s.take_result();
///
/// Chunking NEVER changes the output: state persists exactly across chunks
/// and all truncation decisions key off the deterministic work meter.
/// Workspace storage is retained across begin() calls, so a long-lived
/// engine reaches an allocation-free steady state on stable shapes.
class StreamingInference {
 public:
  StreamingInference() = default;
  StreamingInference(const StreamingInference&) = delete;
  StreamingInference& operator=(const StreamingInference&) = delete;

  /// Prepares a search over (sketch, threshold), starting from precomputed
  /// per-stage heavy-bucket lists (the heavy_buckets() format — the
  /// detection epoch gets these for free from the fused forecaster pass).
  /// Lists in any order give the same result: a list that is not ascending
  /// is sorted here. Discards any previous search. The sketch must outlive
  /// the run; `options` is copied.
  void begin(const ReversibleSketch& sketch, double threshold,
             const InferenceOptions& options,
             std::vector<std::vector<std::uint32_t>> stage_buckets);

  /// As above, but scans the sketch counters for the heavy buckets itself.
  void begin(const ReversibleSketch& sketch, double threshold,
             const InferenceOptions& options);

  /// Advances the search by roughly `quantum` work units (it finishes the
  /// step in flight, so slight overshoot is possible). Returns true when the
  /// search is complete (exhausted, candidate-capped, or out of budget).
  bool run_chunk(std::size_t quantum);

  bool done() const { return done_; }

  /// Work units spent so far (valid mid-search).
  std::size_t work_used() const { return result_.work_used; }

  /// Moves the finished result out. Call once, after run_chunk returned
  /// true; the engine is then ready for the next begin().
  InferenceResult take_result();

 private:
  using BucketSpan = std::span<const std::uint32_t>;

  /// Per-depth DFS state. The search holds exactly one active node per
  /// depth, so one workspace per level serves all siblings, and re-entry
  /// overwrites it in place: the steady state is allocation-free.
  struct Level {
    /// groups[h * sub_range + v] = this node's consistent heavy buckets of
    /// stage h whose sub-index at this word is v: a contiguous slice of
    /// roots_[h] (empty when there are none), valid for the whole search.
    /// A node with no viable byte leaves its later stages unwritten; no
    /// child reads them.
    std::vector<BucketSpan> groups;
    /// Byte values at this word still to be explored (256-bit mask).
    std::array<std::uint64_t, 4> viable{};
    /// Mangled-key prefix chosen above this level.
    std::uint64_t prefix{0};
  };

  /// Splits each stage's `consistent` slice into its sub-index groups at
  /// word `w`, computes the viable-byte mask, and activates levels_[w].
  void enter_level(int w, std::uint64_t prefix,
                   std::span<const BucketSpan> consistent);
  void emit(std::uint64_t mangled);

  const ReversibleSketch* sketch_{nullptr};
  double threshold_{0.0};
  InferenceOptions options_;
  std::size_t num_stages_{0};
  int num_words_{0};
  int bits_per_word_{0};
  std::size_t sub_range_{0};
  std::size_t effective_slack_{0};

  /// The sketch's word hashes flattened for this search:
  /// map_[(w * 256 + byte) * H + h] = word_hash(h, w).map(byte), and
  /// masks_[(w * H + h) * sub_range + v] = word_hash(h, w).preimage_mask(v).
  std::vector<std::uint8_t> map_;
  std::vector<std::array<std::uint64_t, 4>> masks_;
  std::vector<std::vector<std::uint32_t>> roots_;  ///< ascending per stage
  /// Consistent slices of the node being entered: the whole lists at the
  /// root, then each step's child.
  std::vector<BucketSpan> child_;
  std::vector<Level> levels_;
  int depth_{-1};
  bool done_{true};
  InferenceResult result_;
};

/// Returns all keys whose sketch estimate exceeds `threshold`.
/// The candidate set is exact up to hash-collision false positives/negatives;
/// every emitted key's reported estimate is re-read from the sketch.
InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options = {});

/// As above, but starting from precomputed per-stage heavy-bucket lists
/// (the heavy_buckets() format, in any order). The detection epoch
/// obtains these for free from the fused forecaster pass (Forecaster::step
/// with a heavy list) and hands them here, skipping the full-counter
/// threshold scan. The lists must correspond to (sketch, threshold) for the
/// estimates to be meaningful.
InferenceResult infer_heavy_keys(
    const ReversibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets);

}  // namespace hifind
