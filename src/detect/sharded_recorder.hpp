// Parallel sketch recording (paper Sec. 5.5.3: "we can also use
// multi-processors to record multiple sketches simultaneously in software"),
// built on the paper's COMBINE linearity (Sec. 3.1).
//
// Shared-nothing sharded recording: every worker owns a FULL private
// SketchBank replica and records a partition of the op stream into it with
// plain non-atomic stores through the prefetched batch-update path — no
// shared counter, no atomic RMW, anywhere on the hot path. The producer
// classifies and key-extracts each packet exactly ONCE into a RecordOp
// (SYN => +w, SYN-ACK => −w, other => skipped) and deals op batches
// round-robin across the shards' fixed-capacity lock-free SPSC rings, so
// each op is copied into exactly one ring.
//
// At interval seal the shard replicas are reduced with the bank's one sum
// (SketchBank::merge_shards -> CounterGrid::accumulate per grid ->
// vectorized integer adds): the reduced bank equals a serial record() of the
// whole stream BIT for bit — the counters are int32 sums modulo 2^32, exact
// in any merge order. The recorder does not merge by itself: the caller owns
// the shard banks and the reduction (see detect/overlapped.hpp, which runs
// it as the first stage of the background epoch so seal cost never stalls
// ingest).
//
// Usage (serial close; the reduction runs in place into the first shard,
// which is term 0 of the sum, and the detector keeps everything that
// outlives the interval):
//   std::vector<SketchBank*> shards = ...;      // N private replicas
//   ShardedRecorder rec(shards);
//   for (packet : interval) rec.offer(packet);
//   rec.drain();                                // all ops applied
//   const std::vector<const SketchBank*> terms(shards.begin(), shards.end());
//   shards[0]->merge_shards(terms, pool);       // exact, in place
//   detector.process(*shards[0], interval);
//   for (SketchBank* s : shards) s->clear();    // shards are per-interval
//
// Under the double-buffered pipeline the recorder instead rebind()s to the
// spare shard generation at each interval seal, so recording resumes
// immediately while the sealed generation is reduced and detected on in the
// background.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "detect/sketch_bank.hpp"

namespace hifind {

class ShardedRecorder {
 public:
  /// Default per-shard ring capacity (RecordOps; 4096 * 48 B = 192 KiB).
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 12;

  /// @param shards         one private bank per worker (1..kMaxShards);
  ///                       caller retains ownership. Banks must all be
  ///                       combinable (same config) for the seal merge.
  /// @param ring_capacity  per-shard SPSC ring capacity, rounded up to a
  ///                       power of two (>= 2). Small values force frequent
  ///                       wrap-around/backpressure; tests use them to
  ///                       exercise those paths.
  explicit ShardedRecorder(std::span<SketchBank* const> shards,
                           std::size_t ring_capacity = kDefaultRingCapacity);

  /// Stops workers (draining first). Shard banks remain valid.
  ~ShardedRecorder();

  ShardedRecorder(const ShardedRecorder&) = delete;
  ShardedRecorder& operator=(const ShardedRecorder&) = delete;

  /// Enqueues one packet; it will be recorded into exactly one shard.
  /// `weight` is the sampling weight, as in SketchBank::record(): an
  /// integer, or std::invalid_argument is thrown.
  void offer(const PacketRecord& p, double weight = 1.0);

  /// Enqueues an already-extracted op (the offer() fast path after
  /// make_record_op). Lets callers that must see the op BEFORE recording —
  /// the load shedder's admit test, the active-flow table — classify once
  /// and still use the batched ring path.
  void offer_op(const RecordOp& op);

  /// Blocks until every offered packet has been applied to its shard.
  ///
  /// Waiting escalates: a short pause-spin burst (the common case — workers
  /// are about to catch up), then thread yields, then short sleeps. The
  /// escalation bounds the cost of a wedged or descheduled worker: drain()
  /// still blocks (it is a correctness barrier), but it stops burning a core
  /// while it waits.
  void drain();

  /// Atomically retargets every worker at a new shard-bank generation
  /// (same count as construction). Drains first, so the seal is exact:
  /// packets offered before land in the old generation, packets after in
  /// the new one. Caller-thread only (same thread as offer()/drain());
  /// workers pick up the new target through the ring's existing
  /// release/acquire edge. The old generation is safe to read — and merge —
  /// the moment rebind() returns.
  void rebind(std::span<SketchBank* const> shards);

  /// Per-shard ops applied since the last call (producer thread, after
  /// drain()): the per-shard occupancy signal the pipeline surfaces in
  /// EpochReport. Deterministic given the offer/drain sequence — batch
  /// deal-out is round-robin and drain() flushes the partial batch.
  std::vector<std::uint64_t> take_shard_ops();

  /// Times drain() exhausted its spin budget and had to yield or sleep.
  /// Stays 0 when workers keep up; a growing value under steady load means
  /// the consumer side is the bottleneck (or a worker is wedged).
  std::uint64_t drain_spin_yields() const {
    return drain_spin_yields_.load(std::memory_order_relaxed);
  }

  /// Times publish() found a shard's ring FULL and had to back off (one
  /// count per full-ring episode, lifetime, all shards). The producer-side
  /// twin of drain_spin_yields(): nonzero means ingest stalled on a
  /// consumer. Producer thread only.
  std::uint64_t ring_full_spins() const;

  /// Per-shard full-ring episode counts since the last call (producer
  /// thread only) — the EpochReport per-shard backpressure telemetry.
  std::vector<std::uint64_t> take_ring_full_spins();

  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }

  std::size_t ring_capacity() const { return capacity_; }

 private:
  /// One shard: a worker, its SPSC ring, and its private bank.
  ///
  /// False-sharing audit (the hot-path layout contract):
  ///   - `head`/`tail` are monotonically increasing cursors (slot = cursor
  ///     & (capacity−1)); the worker owns `head`, the producer owns `tail`,
  ///     and each sits alone on its own 64-byte line (alignas on each atomic
  ///     pads the previous field out to a line) so cursor publication never
  ///     invalidates the other side's line.
  ///   - `stop` is also isolated: it is written once at shutdown, and
  ///     sharing a line with `tail` would otherwise ping-pong the
  ///     producer's line on every worker idle-poll.
  ///   - `ops_applied` is written by the worker every batch while the
  ///     producer polls `head`, so it gets its own line too.
  ///   - The cold fields (slots, bank pointer, thread handle) stay
  ///     packed at the front; they are read-mostly, so sharing a line among
  ///     THEM is free — only mutating fields need isolation.
  /// The worker advances `head` only AFTER applying the ops, so head ==
  /// tail means "fully applied", which is what drain() waits on.
  struct Shard {
    explicit Shard(std::size_t capacity) : slots(capacity) {}

    std::vector<RecordOp> slots;
    /// Worker-side target bank. Relaxed atomics suffice: rebind() stores it
    /// on the producer thread after drain() (rings empty), and the worker
    /// loads it only after acquiring a tail advance that was released after
    /// the store, so the pointer is never read concurrently with its update.
    std::atomic<SketchBank*> bank{nullptr};
    std::thread thread;
    alignas(64) std::atomic<std::size_t> head{0};  ///< consumer cursor
    alignas(64) std::atomic<std::size_t> tail{0};  ///< producer cursor
    alignas(64) std::atomic<bool> stop{false};
    alignas(64) std::atomic<std::uint64_t> ops_applied{0};
  };

  void run_worker(Shard& s);
  /// Copies `n` ops into shard `idx`'s ring. Publishes the whole span with
  /// one release store when the ring has room, or in as many chunks as
  /// backpressure dictates; a FULL ring escalates pause -> yield -> sleep
  /// (see publish_backoff) and bumps ring_full_[idx], so a wedged consumer
  /// costs a counter and a sleeping producer, never a spinning core.
  void publish(Shard& s, std::size_t idx, const RecordOp* ops,
               std::size_t n);
  void flush_pending();

  std::size_t capacity_;  ///< ring capacity, power of two
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RecordOp> pending_;  ///< producer-side op batch
  std::size_t next_shard_{0};      ///< round-robin batch deal-out cursor
  std::vector<std::uint64_t> shard_ops_snapshot_;  ///< take_shard_ops base
  /// Per-shard full-ring episode counts + take baseline. Producer-thread
  /// plain state, like pending_ — never touched by workers.
  std::vector<std::uint64_t> ring_full_;
  std::vector<std::uint64_t> ring_full_snapshot_;
  /// Shared stat the producer bumps while a worker polls its cursors: give
  /// it its own line so accounting never dirties a ring line.
  alignas(64) std::atomic<std::uint64_t> drain_spin_yields_{0};
  static constexpr std::size_t kProducerBatch = 256;
};

}  // namespace hifind
