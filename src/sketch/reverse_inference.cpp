#include "sketch/reverse_inference.hpp"

#include <algorithm>
#include <bit>

namespace hifind {
namespace {

/// Pops (and returns) the lowest set bit of a 256-bit mask, or -1 when the
/// mask is empty. Ascending byte order keeps the DFS traversal — and with it
/// every truncation decision — deterministic.
int pop_lowest_byte(std::array<std::uint64_t, 4>& mask) {
  for (int i = 0; i < 4; ++i) {
    if (mask[i] != 0) {
      const int bit = std::countr_zero(mask[i]);
      mask[i] &= mask[i] - 1;
      return i * 64 + bit;
    }
  }
  return -1;
}

}  // namespace

void StreamingInference::begin(const ReversibleSketch& sketch,
                               double threshold,
                               const InferenceOptions& options,
                               std::vector<std::vector<std::uint32_t>>
                                   stage_buckets) {
  sketch_ = &sketch;
  threshold_ = threshold;
  options_ = options;
  const auto& cfg = sketch.config();
  num_stages_ = cfg.num_stages;
  num_words_ = cfg.num_words();
  bits_per_word_ = cfg.bits_per_word();
  sub_range_ = std::size_t{1} << bits_per_word_;
  // Quorum of at least one stage.
  effective_slack_ = std::min(options.stage_slack, num_stages_ - 1);
  result_ = InferenceResult{};
  depth_ = -1;
  done_ = true;

  roots_ = std::move(stage_buckets);
  result_.heavy_buckets_dropped =
      sketch.grid().apply_top_n(roots_, options_.max_heavy_per_stage);
  for (auto& b : roots_) {
    // Slices need ascending lists. Sorting cannot change the result: the
    // search reads which buckets a node holds, never their order.
    if (!std::is_sorted(b.begin(), b.end())) std::sort(b.begin(), b.end());
    result_.heavy_bucket_total += b.size();
  }

  // A key must be heavy in >= H - r stages; if fewer stages have any heavy
  // bucket at all, nothing can qualify.
  std::size_t alive = 0;
  for (const auto& b : roots_) alive += b.empty() ? 0 : 1;
  if (alive + effective_slack_ < num_stages_) return;  // done_, empty result

  // One reusable workspace per depth: the DFS holds exactly one active node
  // per level, so sibling nodes share it.
  const auto words = static_cast<std::size_t>(num_words_);
  levels_.resize(words);
  for (auto& level : levels_) level.groups.resize(num_stages_ * sub_range_);
  child_.resize(num_stages_);

  map_.resize(words * 256 * num_stages_);
  masks_.resize(words * num_stages_ * sub_range_);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t h = 0; h < num_stages_; ++h) {
      const WordHash& wh = sketch.word_hash(h, static_cast<int>(w));
      for (std::size_t byte = 0; byte < 256; ++byte) {
        map_[(w * 256 + byte) * num_stages_ + h] =
            wh.map(static_cast<std::uint8_t>(byte));
      }
      for (std::size_t v = 0; v < sub_range_; ++v) {
        masks_[(w * num_stages_ + h) * sub_range_ + v] =
            wh.preimage_mask(static_cast<std::uint8_t>(v));
      }
    }
  }

  for (std::size_t h = 0; h < num_stages_; ++h) child_[h] = roots_[h];
  enter_level(0, 0, child_);
  depth_ = 0;
  done_ = false;
}

void StreamingInference::begin(const ReversibleSketch& sketch,
                               double threshold,
                               const InferenceOptions& options) {
  begin(sketch, threshold, options, heavy_buckets(sketch, threshold));
}

void StreamingInference::enter_level(int w, std::uint64_t prefix,
                                     std::span<const BucketSpan> consistent) {
  Level& lvl = levels_[static_cast<std::size_t>(w)];
  const int shift = bits_per_word_ * (num_words_ - 1 - w);
  const std::uint32_t sub_mask = static_cast<std::uint32_t>(sub_range_ - 1);

  // Every bucket in a consistent slice shares the sub-indices of words
  // 0..w-1, i.e. the index bits above `shift + bits_per_word_`, so the
  // ascending slice runs through its word-w sub-indices in order: one scan
  // cuts it into the groups, groups[h * sub_range_ + v] holding the buckets
  // of stage h with sub-index v.
  //
  // Viable bytes via 256-bit masks: a byte keeps stage h alive iff its
  // word-hash value selects a non-empty group, i.e. iff it is in the union
  // of those values' preimage masks. at_most[k] holds the bytes that missed
  // at most k of the stages seen so far; a byte is viable iff it misses at
  // most stage_slack stages. Once no byte can be viable the remaining
  // stages need no groups: the node has no children.
  std::size_t grouped = 0;
  std::array<std::array<std::uint64_t, 4>, ReversibleSketch::kMaxStages>
      at_most;
  for (auto& m : at_most) m.fill(~0ULL);
  std::array<std::uint64_t, 4>& viable = at_most[effective_slack_];
  for (std::size_t h = 0; h < num_stages_; ++h) {
    const BucketSpan slice = consistent[h];
    grouped += slice.size();
    if ((viable[0] | viable[1] | viable[2] | viable[3]) == 0) continue;
    BucketSpan* groups = lvl.groups.data() + h * sub_range_;
    const std::array<std::uint64_t, 4>* masks =
        masks_.data() +
        (static_cast<std::size_t>(w) * num_stages_ + h) * sub_range_;
    std::array<std::uint64_t, 4> alive{};
    std::fill_n(groups, sub_range_, BucketSpan{});
    // Backwards, so each bucket extends its group's slice by one at the
    // front.
    for (std::size_t i = slice.size(); i-- > 0;) {
      const std::uint32_t v = (slice[i] >> shift) & sub_mask;
      groups[v] = BucketSpan(slice.data() + i, groups[v].size() + 1);
      for (int j = 0; j < 4; ++j) alive[j] |= masks[v][j];
    }
    for (std::size_t k = effective_slack_; k > 0; --k) {
      for (int i = 0; i < 4; ++i) {
        at_most[k][i] = (at_most[k][i] & alive[i]) | at_most[k - 1][i];
      }
    }
    for (int i = 0; i < 4; ++i) at_most[0][i] &= alive[i];
  }
  lvl.viable = viable;
  lvl.prefix = prefix;

  // Work meter: one unit for the node plus one per bucket in its consistent
  // slices (the node's dominant cost). Deterministic — a pure function of
  // the search state, never of timing.
  result_.work_used += 1 + grouped;
}

void StreamingInference::emit(std::uint64_t mangled) {
  result_.work_used += 2;  // estimate + screen
  // At a leaf every surviving stage pins the key to exactly the bucket it
  // hashed into; count survivors once more (defensive — the descent already
  // pruned below the quorum).
  std::size_t alive = 0;
  for (const auto& b : child_) alive += b.empty() ? 0 : 1;
  if (alive + effective_slack_ < num_stages_) return;

  const std::uint64_t key = sketch_->mangler().unmangle(mangled);
  const double est = sketch_->estimate(key);
  if (est < threshold_) return;  // median across ALL stages must agree
  if (options_.verifier && !options_.verifier(key, est)) return;
  if (result_.keys.size() >= options_.max_candidates) {
    result_.truncated = true;
    done_ = true;
    return;
  }
  result_.keys.push_back(HeavyKey{key, est});
}

bool StreamingInference::run_chunk(std::size_t quantum) {
  if (done_) return true;
  const std::size_t chunk_start = result_.work_used;
  while (result_.work_used - chunk_start < quantum) {
    if (depth_ < 0) {  // every subtree explored
      done_ = true;
      break;
    }
    if (options_.max_work != 0 && result_.work_used >= options_.max_work) {
      result_.work_exhausted = true;
      done_ = true;
      break;
    }
    Level& lvl = levels_[static_cast<std::size_t>(depth_)];
    const int byte = pop_lowest_byte(lvl.viable);
    if (byte < 0) {  // level exhausted: backtrack
      --depth_;
      continue;
    }
    const std::uint64_t prefix =
        (lvl.prefix << 8) | static_cast<std::uint64_t>(byte);
    // Locals, not members: the span stores below may alias any size_t.
    const std::size_t stages = num_stages_;
    const std::size_t range = sub_range_;
    const BucketSpan* groups = lvl.groups.data();
    BucketSpan* child = child_.data();
    const std::uint8_t* sub =
        map_.data() + (static_cast<std::size_t>(depth_) * 256 +
                       static_cast<std::size_t>(byte)) * stages;
    for (std::size_t h = 0; h < stages; ++h) {
      child[h] = groups[h * range + sub[h]];
    }
    if (depth_ + 1 == num_words_) {
      emit(prefix);
      if (done_) break;  // candidate cap aborts the whole search
    } else {
      enter_level(depth_ + 1, prefix, child_);
      ++depth_;
    }
  }
  return done_;
}

InferenceResult StreamingInference::take_result() {
  InferenceResult out = std::move(result_);
  result_ = InferenceResult{};
  options_ = InferenceOptions{};  // drop any captured verifier
  sketch_ = nullptr;
  depth_ = -1;
  done_ = true;
  return out;
}

InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, threshold, options,
                          heavy_buckets(sketch, threshold));
}

InferenceResult infer_heavy_keys(
    const ReversibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets) {
  StreamingInference search;
  search.begin(sketch, threshold, options, std::move(stage_buckets));
  while (!search.run_chunk(~std::size_t{0})) {
  }
  return search.take_result();
}

}  // namespace hifind
