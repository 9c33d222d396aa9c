#include "sketch/reversible_sketch.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace hifind {

const ReversibleSketchConfig& validated(const ReversibleSketchConfig& config) {
  if (config.key_bits < 8 || config.key_bits > 64 || config.key_bits % 8 != 0) {
    throw std::invalid_argument(
        "ReversibleSketch key_bits must be a multiple of 8 in [8,64]");
  }
  if (config.num_stages == 0 ||
      config.num_stages > ReversibleSketch::kMaxStages) {
    throw std::invalid_argument(
        "ReversibleSketch needs between 1 and kMaxStages stages");
  }
  if (config.bucket_bits < 1 || config.bucket_bits > 28 ||
      config.bucket_bits % config.num_words() != 0) {
    throw std::invalid_argument(
        "ReversibleSketch bucket_bits must divide evenly across key words");
  }
  return config;
}

ReversibleSketch::ReversibleSketch(const ReversibleSketchConfig& config)
    : config_(validated(config)),
      mangler_(mix64(config.seed) ^ 0xb5f1c6a3d2e49807ULL, config.key_bits),
      grid_(config.num_stages, config.num_buckets(), 0) {
  const int q = config_.num_words();
  const int nb = config_.bits_per_word();
  word_hashes_.reserve(config_.num_stages * static_cast<std::size_t>(q));
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    for (int w = 0; w < q; ++w) {
      word_hashes_.emplace_back(
          mix64(config_.seed) ^ mix64((h << 8) | static_cast<unsigned>(w)),
          nb);
    }
  }
  if (config_.bucket_bits <= 16) {
    table_.emplace(word_hashes_.data(), config_.num_stages, q, nb);
  }
}

std::size_t ReversibleSketch::index_of_mangled(
    std::size_t stage, std::uint64_t mangled) const {
  const int q = config_.num_words();
  const int nb = config_.bits_per_word();
  std::size_t index = 0;
  // Word 0 is the most-significant key byte and occupies the most-significant
  // sub-index bits; the layout choice is arbitrary but must match inference.
  for (int w = 0; w < q; ++w) {
    const auto word = static_cast<std::uint8_t>(
        (mangled >> (8 * (q - 1 - w))) & 0xff);
    index = (index << nb) | word_hash(stage, w).map(word);
  }
  return index;
}

void ReversibleSketch::update(std::uint64_t key, std::int32_t delta) {
  const std::uint64_t mangled = mangler_.mangle(key);
  std::int32_t* counters = grid_.data();
  std::int32_t* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counter::add(
        counters[h * config_.num_buckets() + index_of_mangled(h, mangled)],
        delta);
    counter::add(sums[h], delta);
  }
}

void ReversibleSketch::flat_indices(std::uint64_t mangled,
                                    std::size_t* at) const {
  const std::size_t K = config_.num_buckets();
  if (table_) {
    table_->for_each_bucket(mangled, config_.num_words(),
                            [&](std::size_t h, std::size_t b) {
                              at[h] = h * K + b;
                            });
    return;
  }
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    at[h] = h * K + index_of_mangled(h, mangled);
  }
}

void ReversibleSketch::update_batch(std::span<const KeyDelta> ops) {
  if (!table_) {
    for (const auto& op : ops) update(op.key, op.delta);
    return;
  }
  // Index pass: every operand of a chunk is mangled and its H counter
  // indices read from the transposed table before any counter line is
  // touched. The apply loop walks them op-major with a sliding prefetch
  // window and adds deltas in the same per-op, per-stage order as update().
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kAhead = 16;  // ops of prefetch lead in the apply loop
  const std::size_t H = config_.num_stages;
  std::int32_t* counters = grid_.data();
  std::int32_t* sums = grid_.sums();
  std::size_t idx[kChunk * kMaxStages];
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      flat_indices(mangler_.mangle(ops[base + j].key), idx + j * H);
    }
    const std::size_t lead = std::min(kAhead, n);
    for (std::size_t j = 0; j < lead; ++j) {
      for (std::size_t h = 0; h < H; ++h) {
        prefetch_write(&counters[idx[j * H + h]]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kAhead < n) {
        for (std::size_t h = 0; h < H; ++h) {
          prefetch_write(&counters[idx[(j + kAhead) * H + h]]);
        }
      }
      const std::int32_t delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        counter::add(counters[idx[j * H + h]], delta);
        counter::add(sums[h], delta);
      }
    }
  }
}

template <class Grid>
double ReversibleSketch::estimate_in(const Grid& counters, std::uint64_t key,
                                     double scale) const {
  std::size_t at[kMaxStages];
  flat_indices(mangler_.mangle(key), at);
  return counters.estimate([&](std::size_t h) { return at[h]; }, scale);
}

double ReversibleSketch::estimate(std::uint64_t key, double scale) const {
  return estimate_in(grid_, key, scale);
}

double ReversibleSketch::estimate(std::uint64_t key,
                                  const CounterGrid& counters,
                                  double scale) const {
  return estimate_in(counters, key, scale);
}

}  // namespace hifind
