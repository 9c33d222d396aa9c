#include "sketch/compact_invertible.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {

const CompactInvertibleConfig& validated(
    const CompactInvertibleConfig& config) {
  if (config.key_bits < 8 || config.key_bits > 64) {
    throw std::invalid_argument(
        "CompactInvertibleSketch key_bits must be in [8, 64]");
  }
  if (config.num_stages == 0 ||
      config.num_stages > CompactInvertibleSketch32::kMaxStages) {
    throw std::invalid_argument(
        "CompactInvertibleSketch needs between 1 and kMaxStages stages");
  }
  if (config.bucket_bits < 1 || config.bucket_bits > 28) {
    throw std::invalid_argument(
        "CompactInvertibleSketch bucket_bits must be in [1, 28]");
  }
  return config;
}

template <class C>
BasicCompactInvertibleSketch<C>::BasicCompactInvertibleSketch(
    const CompactInvertibleConfig& config)
    : config_(validated(config)),
      value_len_(config.num_stages * config.num_buckets()),
      grid_(config.num_stages, config.num_buckets(),
            value_len_ * static_cast<std::size_t>(config.key_bits)) {
  hashes_.reserve(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    hashes_.emplace_back(mix64(config_.seed) ^ mix64(0xC0117ULL + h),
                         config_.num_buckets());
  }
}

namespace {

/// Adds delta to the counters of the set bits of one bucket's bit run: the
/// dispatched masked-vector kernel on int32 counters, the per-set-bit loop
/// on doubles.
struct BitRunAdder {
  simd::AddBitRunFn add_i32 = simd::add_bit_run_kernel();
  int nbits;

  void operator()(std::int32_t* run, std::uint64_t bits,
                  std::int32_t delta) const {
    add_i32(run, bits, nbits, delta);
  }
  void operator()(double* run, std::uint64_t bits, double delta) const {
    for (std::uint64_t m = bits; m != 0; m &= m - 1) {
      run[std::countr_zero(m)] += delta;
    }
  }
};

}  // namespace

template <class C>
void BasicCompactInvertibleSketch<C>::update(std::uint64_t key, C delta) {
  const BitRunAdder add_run{.nbits = config_.key_bits};
  const std::uint64_t bits = key_bits_of(key);
  C* counters = grid_.data();
  C* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    const std::size_t b = hashes_[h].bucket(key);
    counter::add(counters[h * config_.num_buckets() + b], delta);
    counter::add(sums[h], delta);
    add_run(counters + bit_base(h, b), bits, delta);
  }
  grid_.count_updates(1);
}

template <class C>
void BasicCompactInvertibleSketch<C>::update_batch(
    std::span<const BasicKeyDelta<C>> ops) {
  // Index pass computes each operand's buckets once and prefetches the value
  // counter plus the head of the bit run; the apply pass then replays
  // update()'s exact add sequence, so batch is bit-identical to scalar.
  constexpr std::size_t kBlock = 16;
  const std::size_t H = config_.num_stages;
  const BitRunAdder add_run{.nbits = config_.key_bits};
  C* counters = grid_.data();
  C* sums = grid_.sums();
  std::size_t bucket[kBlock * kMaxStages];
  for (std::size_t base = 0; base < ops.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t key = ops[base + j].key;
      for (std::size_t h = 0; h < H; ++h) {
        const std::size_t b = hashes_[h].bucket(key);
        bucket[j * H + h] = b;
        prefetch_write(&counters[h * config_.num_buckets() + b]);
        prefetch_write(&counters[bit_base(h, b)]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const C delta = ops[base + j].delta;
      const std::uint64_t bits = key_bits_of(ops[base + j].key);
      for (std::size_t h = 0; h < H; ++h) {
        const std::size_t b = bucket[j * H + h];
        counter::add(counters[h * config_.num_buckets() + b], delta);
        counter::add(sums[h], delta);
        add_run(counters + bit_base(h, b), bits, delta);
      }
    }
    grid_.count_updates(n);
  }
}

template <class C>
double BasicCompactInvertibleSketch<C>::estimate(std::uint64_t key,
                                                 double scale) const {
  return grid_.estimate(
      [&](std::size_t h) {
        return h * config_.num_buckets() + hashes_[h].bucket(key);
      },
      scale);
}

template <class C>
std::uint64_t BasicCompactInvertibleSketch<C>::decode_bucket(
    std::size_t stage, std::size_t bucket) const {
  const double v = grid_.at(stage, bucket);
  const C* run = grid_.data() + bit_base(stage, bucket);
  const double half = v * 0.5;
  std::uint64_t key = 0;
  for (int b = 0; b < config_.key_bits; ++b) {
    if (counter::widen(run[b]) > half) key |= std::uint64_t{1} << b;
  }
  return key;
}

template class BasicCompactInvertibleSketch<double>;
template class BasicCompactInvertibleSketch<std::int32_t>;

void CompactExtraction::begin(
    const CompactInvertibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets) {
  sketch_ = &sketch;
  threshold_ = threshold;
  options_ = options;
  result_ = InferenceResult{};
  buckets_ = std::move(stage_buckets);
  result_.heavy_buckets_dropped =
      sketch.grid().apply_top_n(buckets_, options_.max_heavy_per_stage);
  for (const auto& b : buckets_) result_.heavy_bucket_total += b.size();
  seen_.clear();
}

void CompactExtraction::begin(const CompactInvertibleSketch& sketch,
                              double threshold,
                              const InferenceOptions& options) {
  begin(sketch, threshold, options, heavy_buckets(sketch, threshold));
}

void CompactExtraction::run() {
  // Work cost commensurate with the DFS meter: decoding one bucket touches
  // key_bits counters — call it 1 + key words; screening a fresh candidate
  // (estimate + verifier) costs 2 more, exactly like a DFS leaf.
  const std::size_t decode_cost =
      1 + static_cast<std::size_t>((sketch_->config().key_bits + 7) / 8);
  // The budget is checked before each bucket and once more at the end.
  const auto spent = [this] {
    return options_.max_work != 0 && result_.work_used >= options_.max_work;
  };
  for (std::size_t stage = 0; stage < buckets_.size(); ++stage) {
    for (const std::uint32_t bucket : buckets_[stage]) {
      if (spent()) {
        result_.work_exhausted = true;
        return;
      }
      result_.work_used += decode_cost;
      const std::uint64_t key = sketch_->decode_bucket(stage, bucket);
      // The same dominant key surfaces from its bucket in every stage; emit
      // on first decode only. Rejected keys are remembered too — re-screening
      // the same noise key per stage would just triple the verifier traffic.
      const auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
      if (it != seen_.end() && *it == key) continue;
      seen_.insert(it, key);
      result_.work_used += 2;  // estimate + screen
      const double est = sketch_->estimate(key);
      if (est < threshold_) continue;  // decode noise: no dominant key here
      if (options_.verifier && !options_.verifier(key, est)) continue;
      if (result_.keys.size() >= options_.max_candidates) {
        result_.truncated = true;
        return;
      }
      result_.keys.push_back(HeavyKey{key, est});
    }
  }
  result_.work_exhausted = spent();
}

InferenceResult CompactExtraction::take_result() {
  InferenceResult out = std::move(result_);
  result_ = InferenceResult{};
  options_ = InferenceOptions{};  // drop any captured verifier
  sketch_ = nullptr;
  buckets_.clear();
  seen_.clear();
  return out;
}

InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, threshold, options,
                          heavy_buckets(sketch, threshold));
}

InferenceResult infer_heavy_keys(
    const CompactInvertibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets) {
  CompactExtraction search;
  search.begin(sketch, threshold, options, std::move(stage_buckets));
  search.run();
  return search.take_result();
}

}  // namespace hifind
