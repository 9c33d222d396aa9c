#include "detect/sharded_recorder.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <stdexcept>
#include <thread>

namespace hifind {
namespace {

/// One step of spin-then-yield backoff. A few pause iterations cover the
/// common "other side is about to make progress" window on multi-core
/// machines; past that we yield so oversubscribed configurations (more
/// threads than cores) keep making progress instead of burning the quantum.
inline void backoff(unsigned& spins) {
  if (spins < 16) {
    ++spins;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  } else {
    std::this_thread::yield();
  }
}

/// Producer-side backoff while a ring is FULL. Unlike the idle-poll
/// backoff above, this one must bound the producer's burn when a consumer
/// is wedged or descheduled for a long time (the drain() escalation's
/// producer twin): pause-spins for the common about-to-drain window, yields
/// for oversubscription, then 50 us sleeps — a stalled publish costs
/// (bounded) latency, never a spinning core.
inline void publish_backoff(unsigned& spins) {
  constexpr unsigned kPauseBudget = 16;
  constexpr unsigned kYieldBudget = 1024;
  if (spins < kPauseBudget) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  } else if (spins < kPauseBudget + kYieldBudget) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ++spins;
}

}  // namespace

ShardedRecorder::ShardedRecorder(std::span<SketchBank* const> shards,
                                 std::size_t ring_capacity)
    : capacity_(std::bit_ceil(std::max<std::size_t>(ring_capacity, 2))) {
  if (shards.empty() || shards.size() > SketchBank::kMaxShards) {
    throw std::invalid_argument(
        "ShardedRecorder: shard count must be in [1, SketchBank::kMaxShards]");
  }
  shards_.reserve(shards.size());
  for (SketchBank* bank : shards) {
    auto shard = std::make_unique<Shard>(capacity_);
    shard->bank.store(bank, std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
  shard_ops_snapshot_.assign(shards_.size(), 0);
  ring_full_.assign(shards_.size(), 0);
  ring_full_snapshot_.assign(shards_.size(), 0);
  for (auto& s : shards_) {
    s->thread = std::thread([this, shard = s.get()] { run_worker(*shard); });
  }
  pending_.reserve(kProducerBatch);
}

ShardedRecorder::~ShardedRecorder() {
  drain();
  for (auto& s : shards_) {
    s->stop.store(true, std::memory_order_release);
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void ShardedRecorder::offer(const PacketRecord& p, double weight) {
  check_record_weight(weight);
  RecordOp op;
  if (!make_record_op(p, weight, op)) return;  // shared extraction, done once
  offer_op(op);
}

void ShardedRecorder::offer_op(const RecordOp& op) {
  pending_.push_back(op);
  if (pending_.size() >= kProducerBatch) flush_pending();
}

void ShardedRecorder::flush_pending() {
  if (pending_.empty()) return;
  // Whole batch to ONE shard, shards dealt round-robin: each op is copied
  // exactly once, and batch granularity keeps the consumer on the prefetched
  // record_ops path. The deal-out is a pure function of the offer/drain
  // sequence, so shard contents are reproducible run to run.
  publish(*shards_[next_shard_], next_shard_, pending_.data(),
          pending_.size());
  next_shard_ = (next_shard_ + 1) % shards_.size();
  pending_.clear();
}

void ShardedRecorder::publish(Shard& s, std::size_t idx, const RecordOp* ops,
                              std::size_t n) {
  const std::size_t mask = capacity_ - 1;
  std::size_t tail = s.tail.load(std::memory_order_relaxed);  // we own tail
  std::size_t pushed = 0;
  unsigned spins = 0;
  while (pushed < n) {
    const std::size_t head = s.head.load(std::memory_order_acquire);
    const std::size_t space = capacity_ - (tail - head);
    if (space == 0) {
      if (spins == 0) ++ring_full_[idx];  // one count per full-ring episode
      publish_backoff(spins);
      continue;
    }
    spins = 0;
    const std::size_t take = std::min(space, n - pushed);
    for (std::size_t i = 0; i < take; ++i) {
      s.slots[(tail + i) & mask] = ops[pushed + i];
    }
    tail += take;
    pushed += take;
    s.tail.store(tail, std::memory_order_release);
  }
}

void ShardedRecorder::drain() {
  // Spin budget before escalating: pause-spins cover the "worker is mid
  // batch" window, yields cover oversubscription; past both we sleep so a
  // wedged worker cannot make drain() burn a core indefinitely.
  constexpr unsigned kSpinBudget = 256;
  constexpr unsigned kYieldBudget = 1024;
  flush_pending();
  for (auto& s : shards_) {
    unsigned spins = 0;
    // head == tail means every published op has been APPLIED to the shard's
    // private bank (the worker advances head only after record_ops).
    const std::size_t tail = s->tail.load(std::memory_order_relaxed);
    while (s->head.load(std::memory_order_acquire) != tail) {
      if (spins < kSpinBudget) {
        ++spins;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      } else if (spins < kSpinBudget + kYieldBudget) {
        ++spins;
        drain_spin_yields_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      } else {
        drain_spin_yields_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
}

void ShardedRecorder::rebind(std::span<SketchBank* const> shards) {
  if (shards.size() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedRecorder::rebind: shard count must match construction");
  }
  drain();  // every op already offered lands in the OLD generation
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->bank.store(shards[i], std::memory_order_relaxed);
  }
}

std::uint64_t ShardedRecorder::ring_full_spins() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : ring_full_) total += c;
  return total;
}

std::vector<std::uint64_t> ShardedRecorder::take_ring_full_spins() {
  std::vector<std::uint64_t> out(ring_full_.size());
  for (std::size_t i = 0; i < ring_full_.size(); ++i) {
    out[i] = ring_full_[i] - ring_full_snapshot_[i];
    ring_full_snapshot_[i] = ring_full_[i];
  }
  return out;
}

std::vector<std::uint64_t> ShardedRecorder::take_shard_ops() {
  std::vector<std::uint64_t> out(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t applied =
        shards_[i]->ops_applied.load(std::memory_order_relaxed);
    out[i] = applied - shard_ops_snapshot_[i];
    shard_ops_snapshot_[i] = applied;
  }
  return out;
}

void ShardedRecorder::run_worker(Shard& s) {
  const std::size_t mask = capacity_ - 1;
  unsigned spins = 0;
  std::size_t head = s.head.load(std::memory_order_relaxed);  // we own head
  for (;;) {
    const std::size_t tail = s.tail.load(std::memory_order_acquire);
    if (head == tail) {
      if (s.stop.load(std::memory_order_acquire) &&
          s.tail.load(std::memory_order_acquire) == head) {
        return;
      }
      backoff(spins);
      continue;
    }
    spins = 0;
    // The tail acquire publishes any rebind() that preceded these ops (the
    // rebind store happens on the producer thread before the next
    // publish()'s tail release).
    SketchBank* bank = s.bank.load(std::memory_order_relaxed);
    while (head != tail) {
      const std::size_t i = head & mask;
      const std::size_t run = std::min(tail - head, capacity_ - i);
      // Full-bank update, plain stores: this bank belongs to this worker
      // alone until the seal's drain/rebind barrier hands it to the merge.
      bank->record_ops(std::span<const RecordOp>(&s.slots[i], run),
                       SketchBank::kGroupAll);
      s.ops_applied.fetch_add(run, std::memory_order_relaxed);
      head += run;
      s.head.store(head, std::memory_order_release);
    }
  }
}

}  // namespace hifind
