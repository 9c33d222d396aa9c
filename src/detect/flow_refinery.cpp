#include "detect/flow_refinery.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"

namespace hifind {

namespace {

/// Generation size in bits, 2^bits_log2. Below 2^6 a generation would have
/// no 64-bit word; at 2^64 the shift is undefined.
std::size_t bloom_bits(std::size_t bits_log2) {
  if (bits_log2 < 6 || bits_log2 > 63) {
    throw std::invalid_argument("CandidateBloom: bits_log2 must be in [6, 63]");
  }
  return std::size_t{1} << bits_log2;
}

}  // namespace

CandidateBloom::CandidateBloom(std::uint64_t seed, std::size_t bits_log2,
                               std::size_t max_inserts_per_generation)
    : seed_(seed),
      mask_(bloom_bits(bits_log2) - 1),
      max_inserts_(max_inserts_per_generation),
      current_(bloom_bits(bits_log2) / 64, 0),
      previous_(bloom_bits(bits_log2) / 64, 0) {}

void CandidateBloom::bit_positions(
    KeyKind kind, std::uint64_t key,
    std::array<std::size_t, kNumHashes>& out) const {
  // Kirsch–Mitzenmacher double hashing; the KeyKind salt keeps the three
  // key spaces' memberships independent even where raw keys collide.
  const std::uint64_t salted =
      key ^ mix64(seed_ + static_cast<std::uint64_t>(kind) + 1);
  const std::uint64_t h1 = mix64(salted);
  const std::uint64_t h2 = mix64(salted ^ 0x9e3779b97f4a7c15ULL) | 1;
  for (std::size_t i = 0; i < kNumHashes; ++i) {
    out[i] = static_cast<std::size_t>(h1 + i * h2) & mask_;
  }
}

bool CandidateBloom::test(KeyKind kind, std::uint64_t key) const {
  std::array<std::size_t, kNumHashes> bits;
  bit_positions(kind, key, bits);
  const auto in = [&](const std::vector<std::uint64_t>& gen) {
    for (const std::size_t b : bits) {
      if ((gen[b / 64] & (std::uint64_t{1} << (b % 64))) == 0) return false;
    }
    return true;
  };
  return in(current_) || in(previous_);
}

void CandidateBloom::insert(KeyKind kind, std::uint64_t key) {
  if (inserts_this_gen_ >= max_inserts_) return;
  ++inserts_this_gen_;
  std::array<std::size_t, kNumHashes> bits;
  bit_positions(kind, key, bits);
  for (const std::size_t b : bits) {
    current_[b / 64] |= std::uint64_t{1} << (b % 64);
  }
}

void CandidateBloom::rotate() {
  std::swap(current_, previous_);
  std::fill(current_.begin(), current_.end(), 0);
  inserts_this_gen_ = 0;
}

ActiveFlowTable::ActiveFlowTable(const FlowRefineryConfig& config)
    : config_(config),
      bloom_(config.bloom_seed, config.bloom_bits_log2,
             config.bloom_max_inserts_per_generation) {}

FlowEvidence ActiveFlowTable::seal(std::uint64_t interval) {
  // One Bloom generation per interval: seal() runs exactly once per close,
  // BEFORE install(), so candidates flagged at this close land in the fresh
  // generation and stay visible through the next interval's gate.
  bloom_.rotate();
  FlowEvidence evidence;
  evidence.interval = interval;
  evidence.entries.reserve(size_);
  for (std::size_t k = 0; k < maps_.size(); ++k) {
    Map& map = maps_[k];
    for (auto it = map.begin(); it != map.end();) {
      Entry& e = it->second;
      FlowEvidenceEntry out;
      out.kind = static_cast<KeyKind>(k);
      out.key = it->first;
      out.syn = e.syn;
      out.synack = e.synack;
      out.full_interval = e.installed < interval;
      evidence.entries.push_back(out);
      e.syn = 0.0;
      e.synack = 0.0;
      // Staleness eviction: the detector stopped flagging this key long
      // enough ago that tracking it buys nothing.
      if (interval - e.last_flagged >= config_.max_idle_intervals) {
        it = map.erase(it);
        --size_;
        ++evicted_;
      } else {
        ++it;
      }
    }
  }
  // Snapshot order must not leak unordered_map iteration order into
  // anything downstream: sort so the evidence — and any report built from
  // it — is a pure function of the table's CONTENTS.
  std::sort(evidence.entries.begin(), evidence.entries.end(),
            [](const FlowEvidenceEntry& a, const FlowEvidenceEntry& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.key < b.key;
            });
  return evidence;
}

void ActiveFlowTable::install(const std::vector<FlowCandidate>& candidates,
                              std::uint64_t interval) {
  if (!config_.enabled || config_.capacity == 0) return;
  // Candidate-flood gate: an attacker who mass-triggers sketch false flags
  // would otherwise churn the table through evict_stalest() and wash out
  // the real flows' evidence. Over the limit, only keys the Bloom filter
  // remembers from the current/previous interval (repeat offenders) are
  // admitted; every candidate is still recorded so it qualifies next
  // interval if the detector keeps flagging it.
  const bool gated = config_.bloom_gate_min_candidates != 0 &&
                     candidates.size() > config_.bloom_gate_min_candidates;
  for (const FlowCandidate& c : candidates) {
    const bool seen = bloom_.test(c.kind, c.key);
    bloom_.insert(c.kind, c.key);
    if (gated && !seen) {
      ++bloom_rejected_;
      continue;
    }
    Map& map = maps_[static_cast<std::size_t>(c.kind)];
    auto it = map.find(c.key);
    if (it != map.end()) {
      it->second.last_flagged = interval;
      continue;
    }
    if (size_ >= config_.capacity) evict_stalest();
    Entry e;
    e.installed = interval;
    e.last_flagged = interval;
    map.emplace(c.key, e);
    ++size_;
  }
}

void ActiveFlowTable::evict_stalest() {
  // O(size) scan, but only on overflow of a table whose membership changes
  // by at most a handful of alert keys per interval. Ties break on
  // (kind, key) so the victim never depends on hash-map iteration order.
  Map* victim_map = nullptr;
  Map::iterator victim;
  std::size_t victim_kind = 0;
  for (std::size_t k = 0; k < maps_.size(); ++k) {
    for (auto it = maps_[k].begin(); it != maps_[k].end(); ++it) {
      if (victim_map == nullptr ||
          it->second.last_flagged < victim->second.last_flagged ||
          (it->second.last_flagged == victim->second.last_flagged &&
           (k < victim_kind ||
            (k == victim_kind && it->first < victim->first)))) {
        victim_map = &maps_[k];
        victim = it;
        victim_kind = k;
      }
    }
  }
  if (victim_map != nullptr) {
    victim_map->erase(victim);
    --size_;
    ++evicted_;
  }
}

RefinementOutcome refine_alerts(const std::vector<Alert>& final_alerts,
                                const FlowEvidence& evidence,
                                double interval_threshold,
                                const FlowRefineryConfig& config) {
  RefinementOutcome out;
  out.refined = final_alerts;
  if (!config.enabled) return out;
  out.report.active = true;
  out.report.tracked = evidence.entries.size();
  if (final_alerts.empty()) return out;

  std::array<std::unordered_map<std::uint64_t, const FlowEvidenceEntry*>, 3>
      by_key;
  for (const FlowEvidenceEntry& e : evidence.entries) {
    by_key[static_cast<std::size_t>(e.kind)].emplace(e.key, &e);
  }

  const double confirm_floor = config.confirm_fraction * interval_threshold;
  out.refined.clear();
  out.refined.reserve(final_alerts.size());
  for (const Alert& a : final_alerts) {
    const auto& map = by_key[static_cast<std::size_t>(a.key_kind)];
    const auto it = map.find(a.key);
    if (it == map.end() || !it->second->full_interval) {
      // No full-interval exact evidence yet (first sighting, or installed
      // mid-stream): pass through unrefined.
      ++out.report.unverified;
      out.refined.push_back(a);
      continue;
    }
    if (it->second->unresponded() >= confirm_floor) {
      ++out.report.confirmed;
      out.refined.push_back(a);
    } else {
      // The sketches said "anomalous", the exact per-flow counters say the
      // key's real un-responded-SYN mass is nowhere near the threshold:
      // collision noise, killed before it reaches a consumer.
      ++out.report.killed;
    }
  }
  return out;
}

}  // namespace hifind
