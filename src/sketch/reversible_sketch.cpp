#include "sketch/reversible_sketch.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {
namespace {

double median_of(std::span<double> v) {
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (n % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

}  // namespace

ReversibleSketch::ReversibleSketch(const ReversibleSketchConfig& config)
    : config_(config), mangler_(mix64(config.seed) ^ 0xb5f1c6a3d2e49807ULL,
                                config.key_bits) {
  if (config_.key_bits < 8 || config_.key_bits > 64 ||
      config_.key_bits % 8 != 0) {
    throw std::invalid_argument(
        "ReversibleSketch key_bits must be a multiple of 8 in [8,64]");
  }
  if (config_.num_stages == 0 || config_.num_stages > kMaxStages) {
    throw std::invalid_argument(
        "ReversibleSketch needs between 1 and kMaxStages stages");
  }
  if (config_.bucket_bits < 1 || config_.bucket_bits > 28 ||
      config_.bucket_bits % config_.num_words() != 0) {
    throw std::invalid_argument(
        "ReversibleSketch bucket_bits must divide evenly across key words");
  }
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
  counters_.assign(config_.num_stages * config_.num_buckets(), 0.0);
  stage_sums_.assign(config_.num_stages, 0.0);
}

std::size_t ReversibleSketch::index_of_mangled(std::size_t stage,
                                               std::uint64_t mangled) const {
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

void ReversibleSketch::update(std::uint64_t key, double delta) {
  const std::uint64_t mangled = mangler_.mangle(key);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counters_[h * config_.num_buckets() + index_of_mangled(h, mangled)] +=
        delta;
    stage_sums_[h] += delta;
  }
  ++update_count_;
}

void ReversibleSketch::update_batch(std::span<const KeyDelta> ops) {
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
        prefetch_write(&counters_[idx[j * H + h]]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kAhead < n) {
        for (std::size_t h = 0; h < H; ++h) {
          prefetch_write(&counters_[idx[(j + kAhead) * H + h]]);
        }
      }
      const double delta = ops[base + j].delta;
      for (std::size_t h = 0; h < H; ++h) {
        counters_[idx[j * H + h]] += delta;
        stage_sums_[h] += delta;
      }
    }
    update_count_ += n;
  }
}

double ReversibleSketch::estimate(std::uint64_t key) const {
  const std::uint64_t mangled = mangler_.mangle(key);
  const double k = static_cast<double>(config_.num_buckets());
  // Fixed scratch: estimate() sits on the detection inner loop (every
  // candidate the inference engine screens), so no per-call allocation.
  std::array<double, kMaxStages> est{};
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    const double bucket =
        counters_[h * config_.num_buckets() + index_of_mangled(h, mangled)];
    est[h] = (bucket - stage_sums_[h] / k) / (1.0 - 1.0 / k);
  }
  return median_of(std::span<double>(est.data(), config_.num_stages));
}

void ReversibleSketch::accumulate(const ReversibleSketch& other,
                                  double coeff) {
  if (!combinable_with(other)) {
    throw std::invalid_argument(
        "ReversibleSketch::accumulate: sketches have different shape or seed");
  }
  simd::accumulate(counters_.data(), other.counters_.data(), counters_.size(),
                   coeff);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    stage_sums_[h] += coeff * other.stage_sums_[h];
  }
}

void ReversibleSketch::scale(double coeff) {
  simd::scale(counters_.data(), counters_.size(), coeff);
  for (auto& s : stage_sums_) s *= coeff;
}

void ReversibleSketch::clear() {
  std::fill(counters_.begin(), counters_.end(), 0.0);
  std::fill(stage_sums_.begin(), stage_sums_.end(), 0.0);
  update_count_ = 0;
}

void ReversibleSketch::load_counters(std::span<const double> counters) {
  if (counters.size() != counters_.size()) {
    throw std::invalid_argument(
        "ReversibleSketch::load_counters: size mismatch");
  }
  std::copy(counters.begin(), counters.end(), counters_.begin());
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    double sum = 0.0;
    for (std::size_t b = 0; b < config_.num_buckets(); ++b) {
      sum += counters_[h * config_.num_buckets() + b];
    }
    stage_sums_[h] = sum;
  }
}

ReversibleSketch ReversibleSketch::combine(
    std::span<const std::pair<double, const ReversibleSketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("ReversibleSketch::combine: no terms");
  }
  ReversibleSketch out(terms.front().second->config());
  out.combine_into(terms);
  return out;
}

void ReversibleSketch::combine_into(
    std::span<const std::pair<double, const ReversibleSketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("ReversibleSketch::combine_into: no terms");
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!combinable_with(*terms[i].second)) {
      throw std::invalid_argument(
          "ReversibleSketch::combine_into: sketches have different shape or "
          "seed");
    }
    if (i > 0 && terms[i].second == this) {
      throw std::invalid_argument(
          "ReversibleSketch::combine_into: destination may only alias term 0");
    }
  }
  // Derived state first, while this sketch's own values (it may be term 0)
  // are still readable.
  std::uint64_t updates = 0;
  for (const auto& [coeff, sketch] : terms) {
    (void)coeff;
    updates += sketch->update_count_;
  }
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    double s = 0.0;
    for (const auto& [coeff, sketch] : terms) {
      s += coeff * sketch->stage_sums_[h];
    }
    stage_sums_[h] = s;
  }
  // First term assigns (y = 0*y + c*x is exact and alias-safe for finite
  // counters), the rest accumulate — one pass per term over the reused
  // counter array.
  simd::axpby(counters_.data(), terms[0].second->counters_.data(),
              counters_.size(), 0.0, terms[0].first);
  for (const auto& [coeff, sketch] : terms.subspan(1)) {
    simd::accumulate(counters_.data(), sketch->counters_.data(),
                     counters_.size(), coeff);
  }
  update_count_ = updates;
}

}  // namespace hifind
