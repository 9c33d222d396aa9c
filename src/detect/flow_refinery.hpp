// Exact-flow alert refinement: a bounded in-DRAM working set of active
// flows (Jang et al., arXiv:1902.04143) scoped to the keys the sketches
// already flagged.
//
// Sketches answer "which keys look anomalous" but cannot say whether a
// flagged key's magnitude is real traffic or hash-collision noise, and
// under load shedding they only see a sampled substream. The refinery
// closes both gaps with a small amount of EXACT state:
//
//   epoch N-1 finishes -> its final alerts become CANDIDATE keys
//   close(N)           -> candidates installed into the ActiveFlowTable
//   interval N+1       -> the ingest thread feeds every recordable op
//                         (PRE-shed, weight-uncompensated) through
//                         observe(), so tracked keys accumulate exact
//                         weighted #SYN / #SYN-ACK counts even while the
//                         sketches run at 2^-k coverage
//   close(N+1)         -> seal() snapshots the evidence; the epoch thread
//                         refines interval N+1's alerts against it
//
// A key flagged at epoch E is therefore confirmable from epoch E+2 onward
// (one interval to install, one to accumulate a FULL interval of evidence).
// That lag is deliberate: partial-interval counts would under-read real
// attacks and kill true alerts, and the detector's persistence heuristics
// already expect attacks to span intervals. Alerts whose keys have no full
// evidence yet pass through as "unverified" — refinement only ever adds
// confidence, it never suppresses a first sighting.
//
// The table is fixed-capacity with eviction-by-staleness (the flow_table
// baseline's map idiom, bounded): keys stop being refreshed when the
// detector stops flagging them, go idle, and age out; overflow evicts the
// stalest entry deterministically (ties broken by key) so the working set
// is a pure function of the alert/op streams. Everything here is
// single-threaded by contract: observe/seal/install run on the ingest
// thread, and the epoch thread sees only the sealed, by-value FlowEvidence
// snapshot — refine_alerts() is a pure function of (evidence, alerts,
// config), which is what the determinism test asserts.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "detect/alerts.hpp"
#include "packet/packet.hpp"

namespace hifind {

struct FlowRefineryConfig {
  bool enabled{true};
  /// Max tracked keys across all three key spaces (exact state is the
  /// scarce resource; 4096 entries ~ 256 KiB of map state).
  std::size_t capacity{4096};
  /// Entries not re-flagged for this many intervals age out at seal.
  std::uint32_t max_idle_intervals{4};
  /// An alert is CONFIRMED iff its key's exact un-responded-SYN count over
  /// a full evidence interval reaches this fraction of the detector's
  /// per-interval threshold; below it the alert is KILLED as collision
  /// noise. 0.5 leaves headroom for flows straddling interval edges while
  /// still sitting far above what a hash collision accumulates.
  double confirm_fraction{0.5};

  /// Candidate-flood guard (Azzana-style Bloom pre-filter, see
  /// arXiv:1902.04143's new-flow memory): when a single interval flags MORE
  /// than this many candidate keys — an attacker driving the sketches into
  /// mass false flags to churn the exact table — install() admits only keys
  /// the Bloom filter has already seen in the current or previous interval
  /// (repeat offenders). Below the limit every candidate installs as
  /// before, so the guard is invisible in benign operation. 0 disables it.
  std::size_t bloom_gate_min_candidates{1024};
  /// log2 of the Bloom bitset size per generation (2^20 bits = 128 KiB);
  /// must lie in [6, 63].
  std::size_t bloom_bits_log2{20};
  /// Hard cap on Bloom inserts per generation: bounds the filter's
  /// false-positive rate under flood (a saturated filter would wave every
  /// key through). Inserts past the cap are dropped in candidate order, so
  /// the filter state stays a pure function of the candidate stream.
  std::size_t bloom_max_inserts_per_generation{32768};
  /// Seed of the Bloom hash family (independent of every sketch family).
  std::uint64_t bloom_seed{0xB100F17Eu};
};

/// One tracked key's exact evidence for a sealed interval.
struct FlowEvidenceEntry {
  KeyKind kind{KeyKind::DipDport};
  std::uint64_t key{0};
  double syn{0.0};     ///< exact weighted #SYN observed (pre-shed)
  double synack{0.0};  ///< exact weighted #SYN-ACK observed (pre-shed)
  /// True iff the entry was installed before the sealed interval began and
  /// its counts therefore cover the whole interval. Partial entries are
  /// never used to kill an alert.
  bool full_interval{false};

  double unresponded() const { return syn - synack; }
};

/// Sealed, by-value snapshot handed from the ingest thread to the epoch
/// thread at each interval close.
struct FlowEvidence {
  std::uint64_t interval{0};
  std::vector<FlowEvidenceEntry> entries;
};

/// A key the detector flagged, queued for exact tracking.
struct FlowCandidate {
  KeyKind kind{KeyKind::DipDport};
  std::uint64_t key{0};
};

/// Two-generation rotating Bloom filter over flagged candidate keys. A key
/// tests positive iff it was inserted in the current or the previous
/// generation; rotate() (called once per interval seal) retires the older
/// generation, so membership spans a sliding ~2-interval window without any
/// per-key state. Deterministic by construction: seeded hash family, and a
/// per-generation insert cap that drops excess inserts in arrival order.
class CandidateBloom {
 public:
  /// Throws std::invalid_argument unless 6 <= bits_log2 <= 63.
  CandidateBloom(std::uint64_t seed, std::size_t bits_log2,
                 std::size_t max_inserts_per_generation);

  bool test(KeyKind kind, std::uint64_t key) const;
  /// No-op once the generation's insert cap is reached.
  void insert(KeyKind kind, std::uint64_t key);
  /// Ages the current generation into "previous"; drops the old previous.
  void rotate();

 private:
  static constexpr std::size_t kNumHashes = 4;
  void bit_positions(KeyKind kind, std::uint64_t key,
                     std::array<std::size_t, kNumHashes>& out) const;

  std::uint64_t seed_;
  std::size_t mask_;
  std::size_t max_inserts_;
  std::size_t inserts_this_gen_{0};
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> previous_;
};

/// Bounded exact-counter table over sketch-flagged candidate keys.
/// Ingest-thread only; see file comment for the thread discipline.
class ActiveFlowTable {
 public:
  explicit ActiveFlowTable(const FlowRefineryConfig& config);

  /// True when nothing is tracked — the ingest fast path's skip test.
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Accumulates one recordable op into any tracked key it matches. Call
  /// with the PRE-shed op (weight as offered, not inverse-probability
  /// compensated): the whole point is exact evidence under sampling.
  void observe(const RecordOp& op) {
    accumulate(KeyKind::SipDport, op.k_sip_dport, op);
    accumulate(KeyKind::DipDport, op.k_dip_dport, op);
    accumulate(KeyKind::SipDip, op.k_sip_dip, op);
  }

  /// Snapshots every tracked key's counts for the interval being sealed,
  /// resets the per-interval counters, and ages out idle entries.
  FlowEvidence seal(std::uint64_t interval);

  /// Installs (or refreshes) candidate keys flagged at interval `interval`.
  /// Call AFTER seal() at a close, so a fresh entry never seals a partial
  /// interval as full evidence. Overflow evicts the stalest entry.
  void install(const std::vector<FlowCandidate>& candidates,
               std::uint64_t interval);

  /// Lifetime count of entries evicted (staleness + overflow).
  std::uint64_t evicted() const { return evicted_; }

  /// Lifetime count of candidates the Bloom pre-filter turned away during
  /// flood-gated installs (first-sighting keys under candidate flood).
  std::uint64_t bloom_rejected() const { return bloom_rejected_; }

 private:
  struct Entry {
    double syn{0.0};
    double synack{0.0};
    std::uint64_t installed{0};     ///< interval index install() ran at
    std::uint64_t last_flagged{0};  ///< most recent install/refresh interval
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;

  void accumulate(KeyKind kind, std::uint64_t key, const RecordOp& op) {
    Map& map = maps_[static_cast<std::size_t>(kind)];
    if (map.empty()) return;
    auto it = map.find(key);
    if (it == map.end()) return;
    (op.syn ? it->second.syn : it->second.synack) += op.weight;
  }

  void evict_stalest();

  FlowRefineryConfig config_;
  std::array<Map, 3> maps_;  ///< one map per KeyKind
  std::size_t size_{0};
  std::uint64_t evicted_{0};
  CandidateBloom bloom_;
  std::uint64_t bloom_rejected_{0};
};

/// Pure refinement: splits `final_alerts` into confirmed / killed /
/// unverified against the sealed evidence. Returns the surviving list
/// (confirmed + unverified, original order) and the verdict counts. The
/// output depends only on the arguments — no clocks, no table access — so
/// verdicts are reproducible from (bank-derived alerts, flow table
/// snapshot, config) alone.
struct RefinementOutcome {
  std::vector<Alert> refined;
  RefinementReport report;
};
RefinementOutcome refine_alerts(const std::vector<Alert>& final_alerts,
                                const FlowEvidence& evidence,
                                double interval_threshold,
                                const FlowRefineryConfig& config);

}  // namespace hifind
