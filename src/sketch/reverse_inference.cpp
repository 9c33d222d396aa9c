#include "sketch/reverse_inference.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "common/task_pool.hpp"

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
                               const CounterGrid& counters, double threshold,
                               const InferenceOptions& options,
                               StageBuckets stage_buckets) {
  if (!sketch.grid().same_shape(counters)) {
    throw std::invalid_argument(
        "StreamingInference::begin: grid of another shape");
  }
  sketch_ = &sketch;
  counters_ = &counters;
  threshold_ = threshold;
  options_ = options;
  const auto& cfg = sketch.config();
  num_stages_ = cfg.num_stages;
  num_words_ = cfg.num_words();
  bits_per_word_ = cfg.bits_per_word();
  sub_range_ = std::size_t{1} << bits_per_word_;
  // Quorum of at least one stage.
  effective_slack_ = std::min(options.stage_slack, num_stages_ - 1);
  root_work_ = 0;
  heavy_bucket_total_ = 0;
  num_subtrees_ = 0;
  exhausted_ = false;
  split_ = false;

  roots_ = std::move(stage_buckets);
  heavy_buckets_dropped_ =
      counters.apply_top_n(roots_, options_.max_heavy_per_stage);
  for (auto& b : roots_) {
    // Slices need ascending lists. Sorting cannot change the result: the
    // search reads which buckets a node holds, never their order.
    if (!std::is_sorted(b.begin(), b.end())) std::sort(b.begin(), b.end());
    heavy_bucket_total_ += b.size();
  }

  // A key must be heavy in >= H - r stages; if fewer stages have any heavy
  // bucket at all, nothing can qualify.
  std::size_t alive = 0;
  for (const auto& b : roots_) alive += b.empty() ? 0 : 1;
  if (alive + effective_slack_ < num_stages_) return;  // empty result

  const auto words = static_cast<std::size_t>(num_words_);
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

  // The root step; each viable first byte then roots one subtree.
  root_.groups.resize(num_stages_ * sub_range_);
  std::array<BucketSpan, ReversibleSketch::kMaxStages> whole;
  for (std::size_t h = 0; h < num_stages_; ++h) whole[h] = roots_[h];
  root_work_ =
      enter_level(root_, 0, 0, std::span(whole.data(), num_stages_));
  // Every slot starts empty, so a subtree the walk never reaches adds
  // nothing to the join.
  std::array<std::uint64_t, 4> viable = root_.viable;
  for (int byte; (byte = pop_lowest_byte(viable)) >= 0;) {
    if (subtrees_.size() == num_subtrees_) subtrees_.emplace_back();
    Subtree& t = subtrees_[num_subtrees_++];
    t.byte = static_cast<std::uint8_t>(byte);
    t.keys.clear();
    t.meters.clear();
    t.work = 0;
    t.truncated = false;
    t.exhausted = false;
    t.finished = false;
  }
}

void StreamingInference::begin(const ReversibleSketch& sketch,
                               const CounterGrid& counters, double threshold,
                               const InferenceOptions& options) {
  begin(sketch, counters, threshold, options,
        counters.heavy_buckets(threshold));
}

std::size_t StreamingInference::enter_level(
    Level& lvl, int w, std::uint64_t prefix,
    std::span<const BucketSpan> consistent) const {
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
  return 1 + grouped;
}

void StreamingInference::Walker::walk(const StreamingInference& s,
                                      Subtree& t, std::size_t base,
                                      std::size_t cap) {
  const auto words = static_cast<std::size_t>(s.num_words_);
  if (levels_.size() < words) levels_.resize(words);
  for (std::size_t w = 1; w < words; ++w) {
    levels_[w].groups.resize(s.num_stages_ * s.sub_range_);
  }
  child_.resize(s.num_stages_);
  depth_ = 0;
  step(s, t, 0, s.root_.groups.data(), 0, t.byte, cap);
  while (depth_ != 0) {
    if (s.options_.max_work != 0 && base + t.work >= s.options_.max_work) {
      t.exhausted = true;
      return;
    }
    Level& lvl = levels_[static_cast<std::size_t>(depth_)];
    const int byte = pop_lowest_byte(lvl.viable);
    if (byte < 0) {  // level exhausted: backtrack
      --depth_;
      continue;
    }
    step(s, t, depth_, lvl.groups.data(), lvl.prefix, byte, cap);
  }
}

void StreamingInference::Walker::step(const StreamingInference& s, Subtree& t,
                                      int w, const BucketSpan* groups,
                                      std::uint64_t prefix, int byte,
                                      std::size_t cap) {
  const std::uint64_t child_prefix =
      (prefix << 8) | static_cast<std::uint64_t>(byte);
  // Locals, not members: the span stores below may alias any size_t.
  const std::size_t stages = s.num_stages_;
  const std::size_t range = s.sub_range_;
  BucketSpan* child = child_.data();
  const std::uint8_t* sub =
      s.map_.data() + (static_cast<std::size_t>(w) * 256 +
                       static_cast<std::size_t>(byte)) * stages;
  for (std::size_t h = 0; h < stages; ++h) {
    child[h] = groups[h * range + sub[h]];
  }
  if (w + 1 == s.num_words_) {
    emit(s, t, child_prefix, cap);
  } else {
    t.work += s.enter_level(levels_[static_cast<std::size_t>(w) + 1], w + 1,
                            child_prefix, child_);
    depth_ = w + 1;
  }
}

void StreamingInference::Walker::emit(const StreamingInference& s, Subtree& t,
                                      std::uint64_t mangled, std::size_t cap) {
  t.work += 2;  // estimate + screen
  // At a leaf every surviving stage pins the key to exactly the bucket it
  // hashed into; count survivors once more (defensive — the descent already
  // pruned below the quorum).
  std::size_t alive = 0;
  for (const auto& b : child_) alive += b.empty() ? 0 : 1;
  if (alive + s.effective_slack_ < s.num_stages_) return;

  const std::uint64_t key = s.sketch_->mangler().unmangle(mangled);
  const double est = s.sketch_->estimate(key, *s.counters_);
  if (est < s.threshold_) return;  // median across ALL stages must agree
  if (s.options_.verifier && !s.options_.verifier(key, est)) return;
  if (s.split_) t.meters.push_back(t.work);
  if (t.keys.size() >= cap) {
    t.truncated = true;
    depth_ = 0;  // the candidate cap ends the whole search here
    return;
  }
  t.keys.push_back(HeavyKey{key, est});
}

void StreamingInference::run() {
  std::size_t base = root_work_;  // work of the root and the walked subtrees
  std::size_t kept = 0;           // keys of the walked subtrees
  for (std::size_t i = 0;; ++i) {
    // At the root, between subtrees: the budget is checked before each root
    // byte, as before each step below it.
    if (options_.max_work != 0 && base >= options_.max_work) {
      exhausted_ = true;
      return;
    }
    if (i == num_subtrees_) return;  // every subtree explored
    Subtree& t = subtrees_[i];
    walker_.walk(*this, t, base, options_.max_candidates - kept);
    if (t.truncated || t.exhausted) return;
    base += t.work;
    kept += t.keys.size();
  }
}

bool StreamingInference::split() {
  if (options_.max_work != 0) return false;
  split_ = true;
  prefix_done_ = 0;
  prefix_keys_ = 0;
  cut_ = false;
  return true;
}

void StreamingInference::run_subtree(std::size_t i, Walker& walker) {
  Subtree& t = subtrees_[i];
  std::size_t cap;
  {
    // The finished prefix holds only subtrees before this one, so the keys
    // it kept are a lower bound on the keys ahead of this subtree: the
    // sequential search would cut at or before `cap` more.
    std::lock_guard<std::mutex> lock(split_mutex_);
    if (cut_) return;
    cap = options_.max_candidates - prefix_keys_;
  }
  walker.walk(*this, t, 0, cap);
  std::lock_guard<std::mutex> lock(split_mutex_);
  t.finished = true;
  while (!cut_ && prefix_done_ < num_subtrees_ &&
         subtrees_[prefix_done_].finished) {
    const Subtree& p = subtrees_[prefix_done_++];
    cut_ = options_.max_candidates - prefix_keys_ < p.meters.size();
    prefix_keys_ += p.keys.size();
  }
}

InferenceResult StreamingInference::take_result() {
  InferenceResult out;
  out.heavy_bucket_total = heavy_bucket_total_;
  out.heavy_buckets_dropped = heavy_buckets_dropped_;
  out.work_used = root_work_;
  // Join in byte order. A split subtree whose meters outnumber the room
  // left holds the key that trips the cap: the sequential search stops
  // there. An ordered walk stopped at that key itself (`truncated`).
  for (std::size_t i = 0; i < num_subtrees_; ++i) {
    const Subtree& t = subtrees_[i];
    const std::size_t room = options_.max_candidates - out.keys.size();
    if (room < t.meters.size()) {
      out.keys.insert(out.keys.end(), t.keys.begin(),
                      t.keys.begin() + static_cast<std::ptrdiff_t>(room));
      out.work_used += t.meters[room];
      out.truncated = true;
      break;
    }
    out.keys.insert(out.keys.end(), t.keys.begin(), t.keys.end());
    out.work_used += t.work;
    if (t.truncated) {
      out.truncated = true;
      break;
    }
    if (t.exhausted) {
      out.work_exhausted = true;
      break;
    }
  }
  out.work_exhausted |= exhausted_;
  options_ = InferenceOptions{};  // drop any captured verifier
  sketch_ = nullptr;
  counters_ = nullptr;
  num_subtrees_ = 0;
  split_ = false;
  return out;
}

void run_split_searches(std::span<StreamingInference* const> searches,
                        TaskPool& pool,
                        std::vector<StreamingInference::Walker>& walkers) {
  std::size_t total = 0;
  for (const StreamingInference* s : searches) total += s->subtrees();
  const std::size_t drainers =
      std::min(std::max<std::size_t>(pool.threads(), 1), total);
  if (walkers.size() < drainers) walkers.resize(drainers);
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&](StreamingInference::Walker& walker) {
    for (;;) {
      std::size_t item = cursor.fetch_add(1);
      if (item >= total) return;
      std::size_t k = 0;
      while (item >= searches[k]->subtrees()) item -= searches[k++]->subtrees();
      searches[k]->run_subtree(item, walker);
    }
  };
  for (std::size_t d = 0; d < drainers; ++d) {
    pool.submit([&drain, &walker = walkers[d]] { drain(walker); });
  }
  pool.wait_idle();
}

InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, counters, threshold, options,
                          counters.heavy_buckets(threshold));
}

InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets) {
  StreamingInference search;
  search.begin(sketch, counters, threshold, options, std::move(stage_buckets));
  search.run();
  return search.take_result();
}

}  // namespace hifind
