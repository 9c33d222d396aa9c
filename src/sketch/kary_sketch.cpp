#include "sketch/kary_sketch.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sketch/simd_ops.hpp"

namespace hifind {
namespace {

/// Median of a small scratch vector (destructive).
double median_of(std::vector<double>& v) {
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (n % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

}  // namespace

KarySketch::KarySketch(const KarySketchConfig& config) : config_(config) {
  if (config_.num_stages == 0 || config_.num_buckets < 2) {
    throw std::invalid_argument("KarySketch needs >=1 stage and >=2 buckets");
  }
  hashes_.reserve(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    hashes_.emplace_back(mix64(config_.seed) ^ mix64(h + 0x9e37u),
                         config_.num_buckets);
  }
  counters_.assign(config_.num_stages * config_.num_buckets, 0.0);
  stage_sums_.assign(config_.num_stages, 0.0);
}

void KarySketch::update(std::uint64_t key, double delta) {
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    counters_[bucket_index(h, key)] += delta;
    stage_sums_[h] += delta;
  }
  ++update_count_;
}

void KarySketch::update_batch(std::span<const KeyDelta> ops) {
  constexpr std::size_t kMaxStagesVec = 16;
  // Below this footprint the apply pass hits L2 anyway and ANY index
  // staging loses to the plain scalar loop (measured: 0.96x on the 6x2^14
  // k-ary shape). Small sketches therefore take the scalar loop; the
  // vectorized precomputation is reserved for cache-busting shapes (e.g.
  // RS64's 3 MiB array) where the flat index array feeds a deep prefetch
  // pipeline. SketchBank's sketch-major record_ops keeps these counters
  // resident for a sketch's whole turn, which is exactly the regime this
  // routing assumes. Shapes the staged index buffer or its u32 flat indices
  // can't hold take the scalar loop too.
  constexpr std::size_t kPrefetchMinBytes = std::size_t{2} << 20;
  const std::size_t H = config_.num_stages;
  if (H > kMaxStagesVec ||
      counters_.size() * sizeof(double) < kPrefetchMinBytes ||
      counters_.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Same adds in the same order as update() per op; only the per-op
    // update_count_ increment is hoisted, so batch never trails scalar.
    for (const auto& op : ops) {
      for (std::size_t h = 0; h < H; ++h) {
        counters_[bucket_index(h, op.key)] += op.delta;
        stage_sums_[h] += op.delta;
      }
    }
    update_count_ += ops.size();
    return;
  }
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kAhead = 16;  // ops of prefetch lead in the apply loop
  const std::size_t K = config_.num_buckets;
  std::uint64_t keys[kChunk];
  std::uint64_t hbuf[kChunk];
  std::uint32_t idx[kChunk * kMaxStagesVec];
  for (std::size_t base = 0; base < ops.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ops.size() - base);
    for (std::size_t j = 0; j < n; ++j) keys[j] = ops[base + j].key;
    for (std::size_t h = 0; h < H; ++h) {
      const TabulationHash& th = hashes_[h];
      simd::tab_hash64(keys, n, th.table_data(), 8, hbuf);
      const std::size_t off = h * K;
      for (std::size_t j = 0; j < n; ++j) {
        idx[j * H + h] = static_cast<std::uint32_t>(off + th.fold(hbuf[j]));
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

double KarySketch::estimate(std::uint64_t key) const {
  const double k = static_cast<double>(config_.num_buckets);
  std::vector<double> est(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    const double bucket = counters_[bucket_index(h, key)];
    const double sum = stage_sum(h);
    est[h] = (bucket - sum / k) / (1.0 - 1.0 / k);
  }
  return median_of(est);
}

std::vector<double> KarySketch::stage_values(std::uint64_t key) const {
  std::vector<double> v(config_.num_stages);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    v[h] = counters_[bucket_index(h, key)];
  }
  return v;
}

void KarySketch::accumulate(const KarySketch& other, double coeff) {
  if (!combinable_with(other)) {
    throw std::invalid_argument(
        "KarySketch::accumulate: sketches have different shape or seed");
  }
  simd::accumulate(counters_.data(), other.counters_.data(), counters_.size(),
                   coeff);
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    stage_sums_[h] += coeff * other.stage_sums_[h];
  }
}

void KarySketch::scale(double coeff) {
  simd::scale(counters_.data(), counters_.size(), coeff);
  for (auto& s : stage_sums_) s *= coeff;
}

void KarySketch::clear() {
  std::fill(counters_.begin(), counters_.end(), 0.0);
  std::fill(stage_sums_.begin(), stage_sums_.end(), 0.0);
  update_count_ = 0;
}

void KarySketch::load_counters(std::span<const double> counters) {
  if (counters.size() != counters_.size()) {
    throw std::invalid_argument("KarySketch::load_counters: size mismatch");
  }
  std::copy(counters.begin(), counters.end(), counters_.begin());
  for (std::size_t h = 0; h < config_.num_stages; ++h) {
    double sum = 0.0;
    for (std::size_t b = 0; b < config_.num_buckets; ++b) {
      sum += counters_[h * config_.num_buckets + b];
    }
    stage_sums_[h] = sum;
  }
}

KarySketch KarySketch::combine(
    std::span<const std::pair<double, const KarySketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("KarySketch::combine: no terms");
  }
  KarySketch out(terms.front().second->config());
  out.combine_into(terms);
  return out;
}

void KarySketch::combine_into(
    std::span<const std::pair<double, const KarySketch*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("KarySketch::combine_into: no terms");
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!combinable_with(*terms[i].second)) {
      throw std::invalid_argument(
          "KarySketch::combine_into: sketches have different shape or seed");
    }
    if (i > 0 && terms[i].second == this) {
      throw std::invalid_argument(
          "KarySketch::combine_into: destination may only alias term 0");
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
  // counters), the rest accumulate — one pass per term, reusing this
  // sketch's counter array.
  simd::axpby(counters_.data(), terms[0].second->counters_.data(),
              counters_.size(), 0.0, terms[0].first);
  for (const auto& [coeff, sketch] : terms.subspan(1)) {
    simd::accumulate(counters_.data(), sketch->counters_.data(),
                     counters_.size(), coeff);
  }
  update_count_ = updates;
}

}  // namespace hifind
