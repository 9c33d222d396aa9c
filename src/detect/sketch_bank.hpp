// SketchBank: the complete data-recording state of one HiFIND monitor.
//
// Exactly the paper's Sec. 5.1 inventory, for ONE interval:
//   - three reversible sketches — RS({SIP,Dport}), RS({DIP,Dport}),
//     RS({SIP,DIP}) — recording #SYN − #SYN/ACK,
//   - three paired verification sketches,
//   - one original (k-ary) sketch OS({DIP,Dport}) recording #SYN,
//   - two 2D sketches: {SIP,DIP} x {Dport} and {SIP,Dport} x {DIP},
//   - one k-ary sketch SYNACK({DIP,Dport}) recording #SYN/ACK, which the
//     detector folds into its lifetime service history (detect/hifind.hpp).
//
// The bank is the unit of distribution: each router records into its own
// bank, banks are summed (COMBINE) at a central site (router/aggregator),
// and the detector consumes one (possibly combined) bank per interval.
// Everything that outlives an interval belongs to the detector, so clear()
// resets the whole bank.
//
// Counters: all ten sketches record into int32 counters (modulo 2^32,
// counter_grid.hpp), so every COMBINE and shard merge is an exact integer
// add. The bank tracks the interval's sum of |delta|, which bounds every
// counter: while it is at most INT32_MAX every counter reads its exact value
// (counters_in_range()).
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

/// Throws std::invalid_argument unless `weight` is a finite integer: the
/// recording counters are int32. Every public weight entry point
/// (SketchBank::record, ShardedRecorder::offer, OverlappedPipeline::offer)
/// checks once per call.
void check_record_weight(double weight);

class SketchBank {
 public:
  explicit SketchBank(const SketchBankConfig& config);

  /// Records one packet into every sketch: SYN => +weight, SYN/ACK =>
  /// -weight at the connection's initiator-oriented keys; other packets are
  /// ignored (but still cheap to feed — the common case on a real link).
  /// `weight` supports sampled deployments: recording every admitted packet
  /// of a 1/N sample with weight N keeps the counters unbiased (see
  /// bench/ablation_sampling for what sampling costs in detection power).
  /// Throws std::invalid_argument unless `weight` is an integer (counters
  /// are int32).
  void record(const PacketRecord& p, double weight = 1.0);

  /// Sketch-group selectors for record_op/record_ops. Groups partition the
  /// bank: applying every group once equals one full record(), and two
  /// calls with DISJOINT masks touch disjoint state. kGroupMeta owns
  /// packets_recorded_ and the |delta| sum.
  enum SketchGroup : unsigned {
    kGroupRsSipDport = 1u << 0,
    kGroupRsDipDport = 1u << 1,
    kGroupRsSipDip = 1u << 2,
    kGroupVerification = 1u << 3,  ///< all three verification sketches
    kGroupOsAndHistory = 1u << 4,  ///< OS (#SYN) + SYNACK (#SYN/ACK)
    kGroupTwoD = 1u << 5,          ///< both 2D sketches
    kGroupMeta = 1u << 6,          ///< packet count and |delta| sum
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
  /// same deltas in the same sequence. Op deltas and weights are integers
  /// (the weight entry points check); each is narrowed to an int32 counter
  /// delta where its KeyDelta is staged.
  void record_ops(std::span<const RecordOp> ops, unsigned mask);

  /// Resets every counter for the next interval; hash families persist.
  void clear();

  /// Same as clear(): the bank holds no state beyond one interval. Kept
  /// only because the replay benchmark (perfbench/replay.cpp) calls it.
  void reset_all() { clear(); }

  bool combinable_with(const SketchBank& other) const {
    return config_ == other.config_;
  }

  /// this += other, across every sketch. Shape-checked.
  void accumulate(const SketchBank& other);

  /// COMBINE over banks (aggregated detection, paper Sec. 3.1): the
  /// unit-weight sum of every sketch, plus summed packet counts, as a new
  /// bank. Throws std::invalid_argument
  /// on an empty list or banks of another shape or seed.
  static SketchBank combine(std::span<const SketchBank* const> banks);

  /// Hard cap on shard replicas one merge accepts.
  static constexpr std::size_t kMaxShards = 32;

  /// Seal-time shard reduction for shared-nothing recording: overwrites
  /// every sketch of this bank with the sum over `shards`
  /// (CounterGrid::combine_into, destination-reuse) and replaces
  /// packets_recorded and the |delta| sum with the shard totals. The
  /// counters are integer sums modulo 2^32, exact in any order (a shard
  /// counter may even wrap past INT32_MAX and come back), so the merged
  /// bank is BIT-IDENTICAL to a single bank that recorded the interval's
  /// whole stream, at any shard count.
  ///
  /// This bank may be `shards[0]` (the in-place reduction: its own counters
  /// are term 0 and the other shards are added into them, so with one shard
  /// no counter moves); it may not be any later shard.
  ///
  /// The ten per-grid reductions are independent and run as tasks on
  /// `pool` (nullptr or an inline pool = sequential); per-grid fan-out
  /// beats a bank-level pairwise tree here because it needs no level
  /// barriers. Throws std::invalid_argument on shape mismatch, empty input,
  /// more than kMaxShards shards, or this bank as a shard other than the
  /// first.
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
  /// The interval's #SYN/ACK per {DIP,Dport}; the detector folds it into
  /// its lifetime service history and reads that through this sketch.
  const KarySketch& synack_dip_dport() const { return synack_dip_dport_; }

  /// Number of counter grids in a bank.
  static constexpr std::size_t kNumIntervalGrids = 10;

  /// The ten sketches' counter grids in wire order: the three invertible
  /// sketches ({SIP,Dport}, {DIP,Dport}, {SIP,DIP}), the three verification
  /// sketches (same order), the OS, the two 2D sketches ({SIP,DIP} x
  /// {Dport}, {SIP,Dport} x {DIP}) and the SYNACK sketch. Every whole-bank
  /// operation — clear, COMBINE, the shard merge, memory accounting and the
  /// wire format — is a loop over these.
  std::array<const CounterGrid32*, kNumIntervalGrids> interval_grids() const;

  /// Total counter memory across all sketches: 4 bytes per counter.
  std::size_t memory_bytes() const;

  /// Sum of |delta| over the ops recorded this interval (merged shards and
  /// COMBINE terms add theirs; a deserialized bank bounds it from its
  /// counters). It bounds every interval counter and stage sum.
  std::int64_t abs_delta_sum() const { return abs_delta_sum_; }
  /// True while abs_delta_sum() <= INT32_MAX: every interval counter then
  /// reads its exact value, with no int32 wrap.
  bool counters_in_range() const;

  /// Counter memory accesses one recorded SYN/SYN-ACK performs across all
  /// sketches (paper Sec. 5.5.2 accounting).
  std::size_t accesses_per_packet() const;

  std::uint64_t packets_recorded() const { return packets_recorded_; }

 private:
  friend class SketchBankWire;  // serialization (detect/sketch_wire.cpp)

  std::array<CounterGrid32*, kNumIntervalGrids> interval_grids();
  /// Sets abs_delta_sum_ to a bound read off the counters (deserialized
  /// banks, whose frames carry no |delta| sum): per grid, the largest of
  /// each stage's sum of |counter| and of any single |counter|.
  void bound_from_counters();

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
  KarySketch synack_dip_dport_;
  std::uint64_t packets_recorded_{0};
  std::int64_t abs_delta_sum_{0};
};

}  // namespace hifind
