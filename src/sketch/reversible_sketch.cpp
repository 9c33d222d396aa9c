#include "sketch/reversible_sketch.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {
namespace {

const ReversibleSketchConfig& validated(const ReversibleSketchConfig& config) {
  if (config.key_bits < 8 || config.key_bits > 64 || config.key_bits % 8 != 0) {
    throw std::invalid_argument(
        "ReversibleSketch key_bits must be a multiple of 8 in [8,64]");
  }
  if (config.num_stages == 0 ||
      config.num_stages > ReversibleSketch32::kMaxStages) {
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

}  // namespace

template <class C>
BasicReversibleSketch<C>::BasicReversibleSketch(
    const ReversibleSketchConfig& config)
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
  // Flatten modular hashing for batched index precomputation: byte p of the
  // mangled key (LSB first) is word w = q-1-p, whose sub-index occupies bits
  // [nb*p, nb*(p+1)) of the bucket index. Sub-index ranges are disjoint, so
  // the tab_hash64 XOR fold equals index_of_mangled()'s shift-or concat.
  flat_tables_.assign(config_.num_stages * static_cast<std::size_t>(q) * 256,
                      0);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    for (int p = 0; p < q; ++p) {
      const WordHash& wh = word_hash(h, q - 1 - p);
      std::uint64_t* row =
          flat_tables_.data() + (h * static_cast<std::size_t>(q) + p) * 256;
      for (int v = 0; v < 256; ++v) {
        row[v] = static_cast<std::uint64_t>(wh.map(static_cast<std::uint8_t>(v)))
                 << (nb * p);
      }
    }
  }
}

template <class C>
std::size_t BasicReversibleSketch<C>::index_of_mangled(
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

template <class C>
void BasicReversibleSketch<C>::update(std::uint64_t key, C delta) {
  const std::uint64_t mangled = mangler_.mangle(key);
  C* counters = grid_.data();
  C* sums = grid_.sums();
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counter::add(
        counters[h * config_.num_buckets() + index_of_mangled(h, mangled)],
        delta);
    counter::add(sums[h], delta);
  }
  grid_.count_updates(1);
}

template <class C>
void BasicReversibleSketch<C>::update_batch(
    std::span<const BasicKeyDelta<C>> ops) {
  // Vectorized index precomputation: mangle a whole chunk, then one
  // tab_hash64 pass per stage over the flattened modular-hash tables yields
  // every bucket index before any counter line is touched. The apply loop
  // walks the flat u32 index array (op-major, stride H — max flat index
  // H*K <= 8*2^28 < 2^32) with a sliding prefetch window, and adds deltas in
  // the same per-op, per-stage order as scalar update() — bit-identical.
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kAhead = 16;  // ops of prefetch lead in the apply loop
  const std::size_t H = config_.num_stages;
  const std::size_t K = config_.num_buckets();
  const int q = config_.num_words();
  C* counters = grid_.data();
  C* sums = grid_.sums();
  std::uint64_t mangled[kChunk];
  std::uint64_t hbuf[kChunk];
  std::uint32_t idx[kChunk * kMaxStages];
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      mangled[j] = mangler_.mangle(ops[base + j].key);
    }
    for (std::size_t h = 0; h < H; ++h) {
      simd::tab_hash64(mangled, n,
                       flat_tables_.data() + h * static_cast<std::size_t>(q) * 256,
                       q, hbuf);
      const std::size_t off = h * K;
      for (std::size_t j = 0; j < n; ++j) {
        idx[j * H + h] = static_cast<std::uint32_t>(off + hbuf[j]);
      }
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
      const C delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        counter::add(counters[idx[j * H + h]], delta);
        counter::add(sums[h], delta);
      }
    }
    grid_.count_updates(n);
  }
}

template <class C>
double BasicReversibleSketch<C>::estimate(std::uint64_t key,
                                          double scale) const {
  const std::uint64_t mangled = mangler_.mangle(key);
  return grid_.estimate(
      [&](std::size_t h) {
        return h * config_.num_buckets() + index_of_mangled(h, mangled);
      },
      scale);
}

template class BasicReversibleSketch<double>;
template class BasicReversibleSketch<std::int32_t>;

}  // namespace hifind
