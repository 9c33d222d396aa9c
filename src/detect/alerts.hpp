// Alert model: what HiFIND reports and how phases refine it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hifind {

/// Final attack classification (paper Sec. 3.2/3.3).
enum class AttackType : std::uint8_t {
  kSynFlooding,            ///< victim {DIP, Dport}; source possibly spoofed
  kNonSpoofedSynFlooding,  ///< flooding with identified attacker SIP
  kHorizontalScan,         ///< one SIP probing one Dport across many DIPs
  kVerticalScan,           ///< one SIP probing many Dports on one DIP
};

const char* attack_type_name(AttackType type);

/// One detection: a key in one of the three key spaces whose forecast error
/// exceeded the threshold, tagged with the attack class the three-step
/// algorithm assigned.
struct Alert {
  AttackType type{AttackType::kSynFlooding};
  std::uint64_t interval{0};   ///< detection interval index
  KeyKind key_kind{KeyKind::DipDport};
  std::uint64_t key{0};        ///< packed key (see common/types.hpp)
  double magnitude{0.0};       ///< forecast-error estimate (un-responded SYNs)

  /// Attacker source IP, where the key carries one (vscan/hscan/non-spoofed).
  IPv4 sip() const {
    return key_kind == KeyKind::SipDip ? unpack_key_sip(key)
                                       : unpack_key_ip(key);
  }
  /// Victim IP, where the key carries one ({DIP,Dport} or {SIP,DIP}).
  IPv4 dip() const {
    return key_kind == KeyKind::SipDip ? unpack_key_dip(key)
                                       : unpack_key_ip(key);
  }
  /// Destination port, where the key carries one.
  std::uint16_t dport() const { return unpack_key_port(key); }

  /// Field-wise equality — exact, including the double magnitude; the
  /// parallel-epoch determinism tests compare alert lists bit-for-bit.
  bool operator==(const Alert&) const = default;

  std::string describe() const;
};

/// How much of the traffic the interval's combined bank actually covers.
///
/// Under distributed collection (paper Sec. 3.1) the central site COMBINEs
/// per-router banks; routers can fail, lag past the collection deadline, or
/// be quarantined for shipping corrupt frames, in which case detection runs
/// on the partial sum with its inputs rescaled by the covered fraction. The
/// report lets alert consumers distinguish "clean interval" from "detected
/// under 7/8 coverage". A default-constructed report means a single-vantage
/// interval: full coverage, nothing distributed.
struct CoverageReport {
  std::size_t routers_total{1};
  std::vector<std::uint32_t> routers_combined;  ///< banks in the sum (sorted)
  std::vector<std::uint32_t> routers_missing;   ///< lost/late/quarantined
  /// Fraction of traffic the combined bank covers, estimated as
  /// |combined| / total under the uniform per-packet split the router layer
  /// load-balances with. 1.0 for clean intervals, 0.0 when nothing arrived.
  double fraction{1.0};
  bool degraded{false};  ///< true iff any expected bank was not combined

  // --- Local load-shedding coverage (detect/load_shedder.hpp) -------------
  // Orthogonal to the distributed fields above: `fraction` says how many
  // ROUTER banks made it into the sum, `sample_coverage` says what fraction
  // of the local recordable ops each bank actually sampled. The two faults
  // COMPOSE — total evidence fraction = fraction * sample_coverage — but
  // their rescales must not: shed ops are compensated INLINE (weight
  // 2^level at record time), so the collector's 1/fraction bank rescale is
  // still the only end-of-interval scaling. The combined-fault test pins
  // this down.
  /// Fraction of locally recordable ops admitted past the shedder; 1.0 when
  /// no shedding occurred.
  double sample_coverage{1.0};
  bool shed{false};                 ///< any op dropped by the shedder
  std::uint64_t ops_offered{0};     ///< recordable ops seen by the shedder
  std::uint64_t ops_shed{0};        ///< ops dropped (hash-sampled out)
  std::uint32_t shed_level_max{0};  ///< deepest shed level (rate 2^-level)

  /// Evidence fraction behind this interval's counters: router coverage
  /// times local sampling coverage.
  double effective_coverage() const { return fraction * sample_coverage; }

  std::string describe() const;
};

/// Outcome of exact-flow alert refinement (detect/flow_refinery.hpp): how
/// many of the interval's final alerts the bounded active-flow table could
/// confirm or kill with per-flow evidence. Verdict counts are a pure
/// function of (alerts, sealed evidence, config) — the determinism tests
/// compare reports across shard counts — so the struct carries no
/// wall-clock or capacity-pressure telemetry.
struct RefinementReport {
  bool active{false};          ///< refinement ran for this interval
  std::size_t tracked{0};      ///< evidence entries at refine time
  std::size_t confirmed{0};    ///< alerts backed by exact evidence
  std::size_t killed{0};       ///< alerts contradicted (collision noise)
  std::size_t unverified{0};   ///< alerts with no full-interval evidence yet

  bool operator==(const RefinementReport&) const = default;

  std::string describe() const;
};

/// Close-time degradation report: whether the detection epoch ran under a
/// latency budget and what, if anything, it truncated to stay inside it.
///
/// The budget (HifindDetectorConfig::budget) bounds the reverse-inference
/// burst deterministically — work is metered in search steps, never wall
/// time — so `truncated` is a pure function of the interval's bank and the
/// configuration: the same traffic yields the same (possibly degraded) alert
/// set at any epoch thread count. When `truncated` is false the alerts are
/// bit-identical to an unbudgeted run; consumers should treat a truncated
/// interval like a degraded-coverage one (the alert set is a deterministic
/// subset biased toward the LARGEST anomalies, which the top-N heavy-bucket
/// cap keeps by construction).
struct EpochReport {
  bool budgeted{false};    ///< latency-budget mode was active
  bool truncated{false};   ///< any cap tripped (work, candidates, buckets)
  std::size_t inference_work{0};         ///< work units spent, all inferences
  std::size_t work_budget{0};            ///< per-epoch cap (0 = unlimited)
  std::size_t heavy_buckets_dropped{0};  ///< dropped by the top-N stage cap
  bool candidates_truncated{false};      ///< max_candidates or work cap hit

  // Shared-nothing recording telemetry (overlapped pipeline only;
  // 0/defaults under serial recording). Reporting-only: recording
  // topology and wall-clock, deliberately EXCLUDED from operator== — the
  // determinism contract covers what was detected and what was truncated,
  // not how the interval's counters were recorded or how long the merge
  // took.
  std::size_t shards{0};        ///< shard replicas merged at this seal
  std::uint64_t merge_us{0};    ///< shard-merge wall time (epoch thread)
  /// Least/most-loaded shard's share of the interval's ops, normalized so
  /// 1.0 = perfectly balanced (share * shard count).
  double shard_occupancy_min{1.0};
  double shard_occupancy_max{1.0};
  /// Producer backpressure: times the producer found a ring FULL and had to
  /// back off while publishing this interval's ops, summed over the shard
  /// rings. 0 means ingest never waited on a consumer.
  std::uint64_t ring_full_spins{0};
  /// Per-shard breakdown of `ring_full_spins` (one entry per shard ring):
  /// which shard is the choke point.
  std::vector<std::uint64_t> shard_ring_full_spins;
  /// Times this interval's drain() exhausted its spin budget and yielded or
  /// slept (delta of the recorder's lifetime counter).
  std::uint64_t drain_spin_yields{0};

  /// Equality covers the deterministic degradation contract only (budget +
  /// truncation state); see the telemetry comment above.
  bool operator==(const EpochReport& o) const {
    return budgeted == o.budgeted && truncated == o.truncated &&
           inference_work == o.inference_work &&
           work_budget == o.work_budget &&
           heavy_buckets_dropped == o.heavy_buckets_dropped &&
           candidates_truncated == o.candidates_truncated;
  }

  std::string describe() const;
};

/// Phase-by-phase outcome of one detection interval (paper Table 4 layout):
/// raw three-step output, after 2D-sketch scan screening, after the SYN-flood
/// false-positive heuristics.
struct IntervalResult {
  std::uint64_t interval{0};
  std::vector<Alert> raw;       ///< Phase 1
  std::vector<Alert> after_2d;  ///< Phase 2
  std::vector<Alert> final;     ///< Phase 3
  /// Phase 3 after exact-flow refinement (final minus alerts the active
  /// flow table killed as collision noise; see detect/flow_refinery.hpp).
  /// Equals `final` when refinement is off or no evidence existed —
  /// consumers can always read this field. `final` is left untouched so the
  /// sketch-level determinism contract is unchanged by refinement.
  std::vector<Alert> refined;
  /// Verdict counts behind `refined`; default-inactive when refinement
  /// never ran.
  RefinementReport refinement;
  /// Collection quality behind this interval's bank; defaults to the clean
  /// single-vantage report.
  CoverageReport coverage;
  /// Close-time budget/truncation report; default means "ran to completion".
  /// Warm-up intervals (no alerts yet) keep the default report.
  EpochReport epoch;

  /// Count of alerts of a type within one phase's list.
  static std::size_t count(const std::vector<Alert>& alerts, AttackType type);
};

}  // namespace hifind
