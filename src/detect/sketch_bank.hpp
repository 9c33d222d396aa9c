// SketchBank: the complete data-recording state of one HiFIND monitor.
//
// Exactly the paper's Sec. 5.1 inventory:
//   - three reversible sketches — RS({SIP,Dport}), RS({DIP,Dport}),
//     RS({SIP,DIP}) — recording #SYN − #SYN/ACK,
//   - three paired verification sketches,
//   - one original (k-ary) sketch OS({DIP,Dport}) recording #SYN,
//   - two 2D sketches: {SIP,DIP} x {Dport} and {SIP,Dport} x {DIP}.
//
// The bank is the unit of distribution: each router records into its own
// bank, banks are linearly COMBINEd at a central site (router/aggregator),
// and the detector consumes one (possibly combined) bank per interval.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "packet/packet.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/sketch2d.hpp"
#include "sketch/sketch_backend.hpp"

namespace hifind {

class TaskPool;

/// Shapes for every sketch in a bank. Defaults are the paper's Sec. 5.1
/// parameters (H=6 stages RS/OS, H=5 2D, 2^12/2^16/2^14 buckets).
/// `backend` selects the invertible-sketch implementation behind the three
/// per-key-space sketches: the reference reversible backend uses the
/// rs48/rs64 shapes, the compact invertible backend the ci48/ci64 shapes
/// (fewer stages, bucket-embedded key material — see sketch_backend.hpp).
struct SketchBankConfig {
  std::uint64_t seed{42};  ///< master seed; per-sketch seeds derive from it

  ReversibleSketchConfig rs48{.key_bits = 48,
                              .num_stages = 6,
                              .bucket_bits = 12,
                              .seed = 0};  // seed filled from master
  ReversibleSketchConfig rs64{.key_bits = 64,
                              .num_stages = 6,
                              .bucket_bits = 16,
                              .seed = 0};
  KarySketchConfig verification{.num_stages = 6,
                                .num_buckets = 1u << 14,
                                .seed = 0};
  KarySketchConfig original{.num_stages = 6, .num_buckets = 1u << 14,
                            .seed = 0};
  Sketch2dConfig twod{.num_stages = 5,
                      .x_buckets = 1u << 12,
                      .y_buckets = 64,
                      .seed = 0};
  SketchBackendKind backend{SketchBackendKind::kReversible};
  CompactInvertibleConfig ci48{.key_bits = 48,
                               .num_stages = 3,
                               .bucket_bits = 12,
                               .seed = 0};
  CompactInvertibleConfig ci64{.key_bits = 64,
                               .num_stages = 3,
                               .bucket_bits = 12,
                               .seed = 0};

  bool operator==(const SketchBankConfig&) const = default;
};

class SketchBank {
 public:
  explicit SketchBank(const SketchBankConfig& config);

  /// Records one packet into every sketch: SYN => +weight, SYN/ACK =>
  /// -weight at the connection's initiator-oriented keys; other packets are
  /// ignored (but still cheap to feed — the common case on a real link).
  /// `weight` supports sampled deployments: recording every admitted packet
  /// with weight 1/rate keeps the counters unbiased (see
  /// bench/ablation_sampling for what sampling costs in detection power).
  void record(const PacketRecord& p, double weight = 1.0);

  /// Sketch-group selectors for record_op/record_ops. Groups partition the
  /// bank: applying every group once equals one full record(), and two
  /// calls with DISJOINT masks touch disjoint state. kGroupMeta owns
  /// packets_recorded_.
  enum SketchGroup : unsigned {
    kGroupRsSipDport = 1u << 0,
    kGroupRsDipDport = 1u << 1,
    kGroupRsSipDip = 1u << 2,
    kGroupVerification = 1u << 3,  ///< all three verification sketches
    kGroupOsAndHistory = 1u << 4,  ///< OS + lifetime SYN/ACK history
    kGroupTwoD = 1u << 5,          ///< both 2D sketches
    kGroupMeta = 1u << 6,          ///< packets_recorded_ counter
    kGroupAll = (1u << 7) - 1,
  };
  static constexpr unsigned kNumSketchGroups = 7;

  /// Applies one precomputed RecordOp to the sketch groups in `mask`.
  /// record(p, w) is make_record_op(p, w, op) + record_op(op, kGroupAll);
  /// the split lets a producer classify/extract once and hand the op to a
  /// recording thread (sharded recording, paper Sec. 5.5.3).
  void record_op(const RecordOp& op, unsigned mask);

  /// Applies a batch of RecordOps to the sketch groups in `mask`, feeding
  /// each sketch through its prefetched update_batch path. Final bank state
  /// is BIT-IDENTICAL to record_op per op in order: every sketch sees the
  /// same deltas in the same sequence.
  void record_ops(std::span<const RecordOp> ops, unsigned mask);

  /// Resets per-interval counters for the next interval; hash families and
  /// the cumulative service-activity history persist.
  void clear();

  /// Resets everything including lifetime history (trace restart).
  void reset_all();

  bool combinable_with(const SketchBank& other) const {
    return config_ == other.config_;
  }

  /// this += coeff * other, across every sketch. Shape-checked.
  void accumulate(const SketchBank& other, double coeff = 1.0);

  /// COMBINE over banks (aggregated detection, paper Sec. 3.1).
  static SketchBank combine(
      std::span<const std::pair<double, const SketchBank*>> terms);

  /// Destination-reuse COMBINE: this = sum ci*Bi across every sketch
  /// (including the lifetime SYN/ACK history) plus summed packet counts,
  /// reusing this bank's counter arrays — no sketch construction, no
  /// allocation. `this` may appear only as the FIRST term; every term must
  /// be combinable_with(*this).
  void combine_into(
      std::span<const std::pair<double, const SketchBank*>> terms);

  /// Hard cap on shard replicas one merge accepts; lets the seal-time
  /// reduction stage its unit-coefficient terms in a fixed stack array.
  static constexpr std::size_t kMaxShards = 32;

  /// Seal-time shard reduction for shared-nothing recording: overwrites
  /// every PER-INTERVAL sketch of this bank with the sum over `shards`
  /// (combine_into, destination-reuse), ADDS the shards' SYN/ACK-history
  /// deltas into this bank's cumulative history, and replaces
  /// packets_recorded with the shard total. Shards hold exactly one
  /// interval's worth of state (they are reset after every merge), so after
  /// this call the bank is state-equivalent to a single serially reused
  /// bank that recorded the whole stream — by COMBINE linearity the merge
  /// is exact, and for unit/power-of-two op weights (all deltas ±w with
  /// w = 2^k) every partial sum is exactly representable, making the merged
  /// counters BIT-IDENTICAL to serial recording at any shard count.
  ///
  /// The ten per-grid reductions are independent and run as tasks on
  /// `pool` (nullptr or an inline pool = sequential); per-grid fan-out
  /// beats a bank-level pairwise tree here because it mutates no shard and
  /// needs no level barriers. Throws std::invalid_argument on shape
  /// mismatch, empty input, or more than kMaxShards shards.
  void merge_shards(std::span<const SketchBank* const> shards,
                    TaskPool* pool = nullptr);

  const SketchBankConfig& config() const { return config_; }

  const InvertibleSketch& rs_sip_dport() const { return rs_sip_dport_; }
  const InvertibleSketch& rs_dip_dport() const { return rs_dip_dport_; }
  const InvertibleSketch& rs_sip_dip() const { return rs_sip_dip_; }
  const KarySketch& verif_sip_dport() const { return verif_sip_dport_; }
  const KarySketch& verif_dip_dport() const { return verif_dip_dport_; }
  const KarySketch& verif_sip_dip() const { return verif_sip_dip_; }
  const KarySketch& os_dip_dport() const { return os_dip_dport_; }
  const TwoDSketch& twod_sipdip_dport() const { return twod_sipdip_dport_; }
  const TwoDSketch& twod_sipdport_dip() const { return twod_sipdport_dip_; }

  /// Cumulative lifetime #SYN/ACK per {DIP,Dport} — never cleared by
  /// clear(); backs the misconfiguration (active-service) filter.
  const KarySketch& synack_history() const { return synack_history_; }

  /// Number of counter grids in a bank, and the position of the lifetime
  /// SYN/ACK history among them (the one grid clear() keeps).
  static constexpr std::size_t kNumGrids = 10;
  static constexpr std::size_t kHistoryGrid = 9;

  /// The ten sketches' counter grids in wire order: the three invertible
  /// sketches ({SIP,Dport}, {DIP,Dport}, {SIP,DIP}), the three verification
  /// sketches (same order), the OS, the two 2D sketches ({SIP,DIP} x
  /// {Dport}, {SIP,Dport} x {DIP}) and the SYN/ACK history. Every
  /// whole-bank operation — clear, COMBINE, the shard merge, memory
  /// accounting and the wire format — is a loop over these.
  std::array<const CounterGrid*, kNumGrids> grids() const;

  /// Total counter memory across all sketches (actual, 8-byte counters).
  std::size_t memory_bytes() const;
  /// Counter memory with the paper's 32-bit hardware counters; this is the
  /// number comparable to the paper's "13.2MB".
  std::size_t memory_bytes_hw() const;

  /// Counter memory accesses one recorded SYN/SYN-ACK performs across all
  /// sketches (paper Sec. 5.5.2 accounting).
  std::size_t accesses_per_packet() const;

  std::uint64_t packets_recorded() const { return packets_recorded_; }

 private:
  friend class SketchBankWire;  // serialization (detect/sketch_wire.cpp)

  std::array<CounterGrid*, kNumGrids> grids();

  SketchBankConfig config_;
  InvertibleSketch rs_sip_dport_;
  InvertibleSketch rs_dip_dport_;
  InvertibleSketch rs_sip_dip_;
  KarySketch verif_sip_dport_;
  KarySketch verif_dip_dport_;
  KarySketch verif_sip_dip_;
  KarySketch os_dip_dport_;
  TwoDSketch twod_sipdip_dport_;
  TwoDSketch twod_sipdport_dip_;
  KarySketch synack_history_;
  std::uint64_t packets_recorded_{0};
};

}  // namespace hifind
