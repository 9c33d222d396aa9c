// Reverse inference for reversible sketches: INFERENCE(S, t).
//
// Given a reversible sketch, a double counter grid of its shape (typically a
// forecast error, read through the sketch's hashing) and a threshold t,
// recover the set of keys whose estimated value exceeds t — without
// iterating the key space. This implements the bucket-intersection search
// of Schweller et al. (INFOCOM 2006):
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
// The search is METERED: work is counted in search steps, not wall time, and
// a hard work budget (InferenceOptions::max_work) stops it at a
// DETERMINISTIC point, so the same sketch + options yield the same (possibly
// truncated) key set regardless of thread count or host speed. Each search
// runs to completion once started (StreamingInference::run). An unbudgeted
// search can instead SPLIT into its first-byte subtrees, searched in
// parallel and joined in byte order into the sequential result
// (StreamingInference, run_split_searches).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "sketch/reversible_sketch.hpp"

namespace hifind {

class TaskPool;

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
  /// is identical for any thread count. 0 = unlimited.
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

/// Bucket-reversal search. Usage:
///
///   StreamingInference s;                       // reusable across runs
///   s.begin(sketch, counters, t, options, buckets);  // or the scanning one
///   s.run();
///   InferenceResult r = s.take_result();
///
/// All truncation decisions key off the deterministic work meter. Workspace
/// storage is retained across begin() calls, so a long-lived engine reaches
/// an allocation-free steady state on stable shapes.
///
/// The search is a list of first-byte subtrees: begin() enters the root
/// (word 0), and each viable first byte roots one subtree. run() walks them
/// in byte order under one work meter — the sequential search. An
/// unbudgeted search can instead be split (see run_split_searches()):
///
///   if (s.split()) {
///     for (i < s.subtrees()) s.run_subtree(i, walker);  // any threads
///   }
///   InferenceResult r = s.take_result();
///
/// Each subtree then runs on its own meter, and take_result() joins the
/// per-subtree outputs in byte order into exactly what run() yields: the
/// same keys in the same order, estimates, `truncated` and `work_used`.
/// A split subtree records its meter at each key it emits, so a candidate
/// cap cuts the joined result, and its meter, where the sequential search
/// would have stopped. A budgeted search does not split: where max_work
/// stops it depends on the work every earlier subtree spent.
class StreamingInference {
  using BucketSpan = std::span<const std::uint32_t>;

  /// Per-depth DFS state. A walk holds exactly one active node per depth,
  /// so one workspace per level serves all siblings, and re-entry
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

  /// Output of one first-byte subtree, on the subtree's own work meter.
  /// Cache-line aligned: walkers on different threads bump the meters of
  /// neighbouring slots at every step.
  struct alignas(64) Subtree {
    std::uint8_t byte{0};
    std::vector<HeavyKey> keys;
    /// Split mode only: the meter after each emitted key, plus one entry
    /// for the key that tripped the candidate cap. The join cuts where a
    /// sequential search would have stopped.
    std::vector<std::size_t> meters;
    std::size_t work{0};
    bool truncated{false};  ///< candidate cap tripped in this subtree
    bool exhausted{false};  ///< max_work tripped in this subtree
    /// Split mode only: walk complete, written under split_mutex_.
    bool finished{false};
  };

 public:
  /// One thread's DFS workspace below the root: the levels of words 1..q-1
  /// and the child slices. It reads the search's root tables in place and
  /// is reused across subtrees and searches, so a long-lived walker is
  /// allocation-free on stable shapes. Cache-line aligned, as the Subtree
  /// slots: walkers on different threads sit side by side in one vector.
  class alignas(64) Walker {
   private:
    friend class StreamingInference;

    /// Sizes the workspace for `s` and walks subtree `t` (cleared by
    /// begin()) to its end: explored, cut by the candidate cap (`cap` keys
    /// already kept), or out of budget (`base` is the work spent before the
    /// subtree).
    void walk(const StreamingInference& s, Subtree& t, std::size_t base,
              std::size_t cap);
    /// Takes byte `byte` from the node `groups`/`prefix` at word `w`.
    void step(const StreamingInference& s, Subtree& t, int w,
              const BucketSpan* groups, std::uint64_t prefix, int byte,
              std::size_t cap);
    void emit(const StreamingInference& s, Subtree& t, std::uint64_t mangled,
              std::size_t cap);

    std::vector<Level> levels_;  ///< index = word; [0] is the shared root
    /// Consistent slices of the node being entered.
    std::vector<BucketSpan> child_;
    int depth_{0};  ///< 0 = back at the root: the subtree is done
  };

  StreamingInference() = default;
  StreamingInference(const StreamingInference&) = delete;
  StreamingInference& operator=(const StreamingInference&) = delete;

  /// Prepares a search over (counters, threshold), `counters` a double grid
  /// of `sketch`'s shape read through its hashing, starting from
  /// precomputed per-stage heavy-bucket lists (the heavy_buckets() format —
  /// the detection epoch gets these for free from the fused forecaster
  /// pass). Lists in any order give the same result: a list that is not
  /// ascending is sorted here. Enters the root and lists its subtrees.
  /// Discards any previous search. Throws std::invalid_argument if
  /// `counters` has another shape, the one shape check of the search. The
  /// sketch and the grid must outlive the run; `options` is copied.
  void begin(const ReversibleSketch& sketch, const CounterGrid& counters,
             double threshold, const InferenceOptions& options,
             StageBuckets stage_buckets);

  /// As above, but scans `counters` for the heavy buckets itself.
  void begin(const ReversibleSketch& sketch, const CounterGrid& counters,
             double threshold, const InferenceOptions& options);

  /// Runs the search to completion in byte order: explored,
  /// candidate-capped, or out of budget.
  void run();

  /// Switches an unbudgeted search from run() to run_subtree(). Call right
  /// after begin(). Returns false, leaving the search to run(), when the
  /// search is budgeted (max_work != 0).
  bool split();

  /// Number of first-byte subtrees (0 when begin() found nothing to search).
  std::size_t subtrees() const { return num_subtrees_; }

  /// Searches subtree `i` of a split search with `walker`'s workspace.
  /// Distinct subtrees may run at once on distinct walkers. A subtree is
  /// skipped when the finished subtrees before it already hold the
  /// candidate cap's cut: the join never reads it.
  void run_subtree(std::size_t i, Walker& walker);

  /// Moves the finished result out: after run(), or after every
  /// run_subtree() of a split search returned. The engine is
  /// then ready for the next begin().
  InferenceResult take_result();

 private:
  /// Splits each stage's `consistent` slice into its sub-index groups at
  /// word `w`, computes the viable-byte mask and activates `lvl`. Returns
  /// the node's work units.
  std::size_t enter_level(Level& lvl, int w, std::uint64_t prefix,
                          std::span<const BucketSpan> consistent) const;

  const ReversibleSketch* sketch_{nullptr};
  const CounterGrid* counters_{nullptr};
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
  Level root_;  ///< word 0, shared read-only by every subtree
  std::size_t root_work_{0};
  std::size_t heavy_bucket_total_{0};
  std::size_t heavy_buckets_dropped_{0};

  /// Subtree slots, grown to the largest search seen; the first
  /// num_subtrees_ belong to the current search.
  std::vector<Subtree> subtrees_;
  std::size_t num_subtrees_{0};

  Walker walker_;  ///< the ordered walk's workspace (run)
  bool exhausted_{false};  ///< max_work tripped at the root

  // Split mode (run_subtree). The join prefix: the leading subtrees that
  // have finished, and their keys; cut_ rises once it holds the cut. A
  // search that trips the candidate cap (a first interval with no forecast
  // yet can hold 100 000 candidates) then skips the subtrees past the cut.
  bool split_{false};
  std::mutex split_mutex_;
  std::size_t prefix_done_{0};
  std::size_t prefix_keys_{0};
  bool cut_{false};
};

/// Runs every subtree of the split `searches` on `pool`: one drainer task
/// per pool worker (one, inline, on a pool without workers) takes
/// (search, subtree) pairs from a shared cursor, in order, and searches each
/// with its own walker from `walkers` (grown to the drainer count). Returns
/// once the pool is idle. Results are independent of the pool size.
void run_split_searches(std::span<StreamingInference* const> searches,
                        TaskPool& pool,
                        std::vector<StreamingInference::Walker>& walkers);

/// Returns all keys whose estimate from `counters` (a double grid of the
/// sketch's shape, read through its hashing) exceeds `threshold`.
/// The candidate set is exact up to hash-collision false positives/negatives;
/// every emitted key's reported estimate is re-read from the grid.
InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options = {});

/// As above, but starting from precomputed per-stage heavy-bucket lists
/// (the heavy_buckets() format, in any order). The detection epoch
/// obtains these for free from the fused forecaster pass (Forecaster::step
/// with a heavy list) and hands them here, skipping the full-counter
/// threshold scan. The lists must correspond to (counters, threshold) for
/// the estimates to be meaningful.
InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets);

}  // namespace hifind
