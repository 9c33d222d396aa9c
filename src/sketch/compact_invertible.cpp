#include "sketch/compact_invertible.hpp"

#include <algorithm>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {

const CompactInvertibleConfig& validated(
    const CompactInvertibleConfig& config) {
  if (config.key_bits < 8 || config.key_bits > 64) {
    throw std::invalid_argument(
        "CompactInvertibleSketch key_bits must be in [8, 64]");
  }
  // bucket_bits outside [1, 16] maps to 0 buckets, which the shared check
  // rejects without shifting by an out-of-range count.
  const bool in_range = config.bucket_bits >= 1 && config.bucket_bits <= 16;
  StagedTabulation::check_shape("CompactInvertibleSketch", config.num_stages,
                                in_range ? config.num_buckets() : 0);
  return config;
}

CompactInvertibleSketch::CompactInvertibleSketch(
    const CompactInvertibleConfig& config)
    : config_(validated(config)),
      hashes_(config_.seed, 0xC0117ULL, config_.num_stages,
              config_.num_buckets()),
      value_len_(config.num_stages * config.num_buckets()),
      grid_(config.num_stages, config.num_buckets(),
            value_len_ * static_cast<std::size_t>(config.key_bits)) {
}

void CompactInvertibleSketch::add(const std::size_t* b, std::uint64_t key,
                                  std::int32_t delta) {
  // The set bits of a bucket's run take the dispatched masked-vector add.
  const simd::AddBitRunFn add_run = simd::add_bit_run_kernel();
  const std::uint64_t bits = key_bits_of(key);
  std::int32_t* counters = grid_.data();
  std::int32_t* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counter::add(counters[h * config_.num_buckets() + b[h]], delta);
    counter::add(sums[h], delta);
    add_run(counters + bit_base(h, b[h]), bits, config_.key_bits, delta);
  }
}

void CompactInvertibleSketch::update(std::uint64_t key, std::int32_t delta) {
  std::size_t b[kMaxStages];
  hashes_.for_each_bucket(key, StagedTabulation::live_bytes(key),
                          [&](std::size_t h, std::size_t i) { b[h] = i; });
  add(b, key, delta);
}

void CompactInvertibleSketch::update_batch(std::span<const KeyDelta> ops) {
  // Index pass computes each operand's buckets once and prefetches the value
  // counter and every line of the bucket's bit run; the apply pass then
  // replays update()'s exact add sequence, so batch is bit-identical to
  // scalar.
  constexpr std::size_t kBlock = 16;
  constexpr int kLine = 64 / sizeof(std::int32_t);
  std::uint64_t keys_or = 0;
  for (const auto& op : ops) keys_or |= op.key;
  const int live = StagedTabulation::live_bytes(keys_or);
  const std::int32_t* counters = grid_.data();
  std::size_t bucket[kBlock * kMaxStages];
  for (std::size_t base = 0; base < ops.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t* b = bucket + j * kMaxStages;
      hashes_.for_each_bucket(
          ops[base + j].key, live, [&](std::size_t h, std::size_t i) {
            b[h] = i;
            prefetch_write(&counters[h * config_.num_buckets() + i]);
            const std::int32_t* run = counters + bit_base(h, i);
            for (int off = 0; off < config_.key_bits; off += kLine) {
              prefetch_write(run + off);
            }
            prefetch_write(run + config_.key_bits - 1);
          });
    }
    for (std::size_t j = 0; j < n; ++j) {
      add(bucket + j * kMaxStages, ops[base + j].key, ops[base + j].delta);
    }
  }
}

template <class Grid>
double CompactInvertibleSketch::estimate_in(const Grid& counters,
                                            std::uint64_t key,
                                            double scale) const {
  std::size_t at[kMaxStages];
  hashes_.for_each_bucket(
      key, StagedTabulation::live_bytes(key),
      [&](std::size_t h, std::size_t b) {
        at[h] = h * config_.num_buckets() + b;
      });
  return counters.estimate([&](std::size_t h) { return at[h]; }, scale);
}

double CompactInvertibleSketch::estimate(std::uint64_t key,
                                         double scale) const {
  return estimate_in(grid_, key, scale);
}

double CompactInvertibleSketch::estimate(std::uint64_t key,
                                         const CounterGrid& counters,
                                         double scale) const {
  return estimate_in(counters, key, scale);
}

std::uint64_t CompactInvertibleSketch::decode_bucket(
    const CounterGrid& counters, std::size_t stage, std::size_t bucket) const {
  const double* run = counters.data() + bit_base(stage, bucket);
  const double half = counters.at(stage, bucket) * 0.5;
  std::uint64_t key = 0;
  for (int b = 0; b < config_.key_bits; ++b) {
    if (run[b] > half) key |= std::uint64_t{1} << b;
  }
  return key;
}

void CompactExtraction::begin(const CompactInvertibleSketch& sketch,
                              const CounterGrid& counters, double threshold,
                              const InferenceOptions& options,
                              StageBuckets stage_buckets) {
  if (!sketch.grid().same_shape(counters)) {
    throw std::invalid_argument(
        "CompactExtraction::begin: grid of another shape");
  }
  sketch_ = &sketch;
  counters_ = &counters;
  threshold_ = threshold;
  options_ = options;
  result_ = InferenceResult{};
  buckets_ = std::move(stage_buckets);
  result_.heavy_buckets_dropped =
      counters.apply_top_n(buckets_, options_.max_heavy_per_stage);
  for (const auto& b : buckets_) result_.heavy_bucket_total += b.size();
  seen_.clear();
}

void CompactExtraction::begin(const CompactInvertibleSketch& sketch,
                              const CounterGrid& counters, double threshold,
                              const InferenceOptions& options) {
  begin(sketch, counters, threshold, options,
        counters.heavy_buckets(threshold));
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
      const std::uint64_t key =
          sketch_->decode_bucket(*counters_, stage, bucket);
      // The same dominant key surfaces from its bucket in every stage; emit
      // on first decode only. Rejected keys are remembered too — re-screening
      // the same noise key per stage would just triple the verifier traffic.
      const auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
      if (it != seen_.end() && *it == key) continue;
      seen_.insert(it, key);
      result_.work_used += 2;  // estimate + screen
      const double est = sketch_->estimate(key, *counters_);
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
  counters_ = nullptr;
  buckets_.clear();
  seen_.clear();
  return out;
}

InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, counters, threshold, options,
                          counters.heavy_buckets(threshold));
}

InferenceResult infer_heavy_keys(const CompactInvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets) {
  CompactExtraction search;
  search.begin(sketch, counters, threshold, options, std::move(stage_buckets));
  search.run();
  return search.take_result();
}

}  // namespace hifind
