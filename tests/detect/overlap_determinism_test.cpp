// The double-buffered overlapped pipeline must be a pure scheduling change:
// for the same packet stream it must emit BIT-IDENTICAL alerts to the serial
// record -> process -> clear loop, at any shard count, epoch thread count,
// or ring size — including the lifetime SYN/ACK history, which the pipeline
// keeps outside both shard generations. Runs under TSan in
// CI (the suite name is in the TSan filter) to check the rebind and
// epoch-mailbox handoffs for races.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../testing/synthetic.hpp"
#include "detect/hifind.hpp"
#include "detect/overlapped.hpp"
#include "detect/sharded_recorder.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::feed_hscan;
using testing::feed_vscan;

SketchBankConfig bank_cfg() {
  SketchBankConfig c;
  c.seed = 42;
  c.twod.x_buckets = 1u << 10;
  return c;
}

HifindDetectorConfig det_cfg(std::size_t epoch_threads,
                             const EpochBudget& budget = {}) {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  c.syn_rate_threshold = 1.0;
  c.min_persist_intervals = 2;
  c.epoch_threads = epoch_threads;
  c.budget = budget;
  return c;
}

/// A budget tight enough to truncate the mixed-attack scenario (same pinning
/// rationale as budget_determinism_test): the sharded pipeline must degrade
/// IDENTICALLY to the serial one when both run budgeted.
EpochBudget tight_budget() {
  EpochBudget b;
  b.deadline_ms = 1.0;
  b.work_units_per_ms = 600.0;
  b.max_heavy_per_stage = 4;
  return b;
}

/// Feeds the fixed 10-interval mixed-attack scenario into `sink`, calling
/// `close(interval)` at each interval boundary. The same generator drives
/// both pipelines so the packet streams are literally identical.
template <class Sink, class Close>
void run_scenario(Sink& sink, Close&& close) {
  Pcg32 rng(7, 11);
  const IPv4 victim(129, 105, 1, 1);
  const IPv4 victim2(129, 105, 2, 2);
  for (std::uint64_t interval = 0; interval < 10; ++interval) {
    feed_completed(sink, IPv4(100, 1, 1, 1), victim, 80, 30);
    feed_completed(sink, IPv4(100, 1, 1, 2), victim2, 443, 30);
    feed_completed(sink, IPv4(100, 1, 1, 3), IPv4(129, 105, 1, 3), 22, 20);
    if (interval >= 2) {
      feed_flood(sink, victim, 80, 400, /*spoofed=*/true, rng);
    }
    if (interval >= 3 && interval <= 7) {
      feed_flood(sink, victim2, 443, 300, /*spoofed=*/false, rng,
                 IPv4(6, 6, 6, 6));
    }
    if (interval >= 4) {
      feed_hscan(sink, IPv4(7, 7, 7, 7), 445, 250);
      feed_vscan(sink, IPv4(8, 8, 8, 8), IPv4(129, 105, 9, 9), 250);
    }
    close(interval);
  }
}

std::vector<IntervalResult> replay_serial(std::size_t epoch_threads,
                                          const EpochBudget& budget = {}) {
  SketchBank bank(bank_cfg());
  HifindDetector detector(det_cfg(epoch_threads, budget));
  std::vector<IntervalResult> results;
  run_scenario(bank, [&](std::uint64_t interval) {
    results.push_back(detector.process(bank, interval));
    bank.clear();
  });
  return results;
}

std::vector<IntervalResult> replay_overlapped(
    unsigned record_threads, std::size_t epoch_threads,
    std::size_t ring_capacity = ShardedRecorder::kDefaultRingCapacity,
    const EpochBudget& budget = {}) {
  OverlappedPipelineConfig cfg;
  cfg.bank = bank_cfg();
  cfg.detector = det_cfg(epoch_threads, budget);
  cfg.record_threads = record_threads;
  cfg.ring_capacity = ring_capacity;
  OverlappedPipeline pipe(cfg);
  run_scenario(pipe, [&](std::uint64_t) { pipe.close_interval(); });
  pipe.wait_epoch_idle();
  return pipe.take_results();
}

void expect_identical(const std::vector<IntervalResult>& a,
                      const std::vector<IntervalResult>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].interval, b[i].interval) << what << " interval " << i;
    EXPECT_EQ(a[i].raw, b[i].raw) << what << " raw, interval " << i;
    EXPECT_EQ(a[i].after_2d, b[i].after_2d)
        << what << " after_2d, interval " << i;
    EXPECT_EQ(a[i].final, b[i].final) << what << " final, interval " << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << what << " epoch, interval " << i;
  }
}

TEST(OverlapDeterminism, ScenarioProducesAlerts) {
  // Guard against vacuous equality: the scenario must actually alert, and
  // phase 3 must actually exercise the lifetime history the epoch carries.
  const auto serial = replay_serial(1);
  std::size_t raw = 0, fin = 0;
  for (const auto& r : serial) {
    raw += r.raw.size();
    fin += r.final.size();
  }
  EXPECT_GT(raw, 0u);
  EXPECT_GT(fin, 0u);
}

TEST(OverlapDeterminism, ShardedBitIdenticalToSerial) {
  // The core guarantee: shared-nothing replicas reduced by linearity into
  // their first shard are a pure scheduling change — same alerts as the
  // serial loop at every shard count, including the cumulative SYN/ACK
  // history that the pipeline keeps outside both shard generations.
  const auto serial = replay_serial(/*epoch_threads=*/1);
  expect_identical(serial, replay_overlapped(1, 1), "1 shard");
  expect_identical(serial, replay_overlapped(2, 1), "2 shards");
  expect_identical(serial, replay_overlapped(4, 4),
                   "4 shards, 4 epoch threads");
  expect_identical(serial, replay_overlapped(8, 2), "8 shards");
}

TEST(OverlapDeterminism, TinyRingsDoNotChangeAlerts) {
  // Tiny rings force constant wrap-around/backpressure in the recorder while
  // the epoch runs concurrently — the most adversarial interleaving.
  const auto serial = replay_serial(/*epoch_threads=*/1);
  expect_identical(serial, replay_overlapped(3, 2, /*ring_capacity=*/8),
                   "ring 8");
}

TEST(OverlapDeterminism, ShardedBudgetedDegradesIdentically) {
  // Budgeted + sharded: the latency budget's deterministic-truncation
  // contract must hold over the reduced shard exactly as over a serial one —
  // same truncated alert set, same EpochReport degradation fields.
  const EpochBudget budget = tight_budget();
  const auto serial = replay_serial(/*epoch_threads=*/1, budget);
  bool any_truncated = false;
  for (const auto& r : serial) any_truncated |= r.epoch.truncated;
  EXPECT_TRUE(any_truncated) << "budget never tripped — vacuous test";
  expect_identical(serial,
                   replay_overlapped(4, 2,
                                     ShardedRecorder::kDefaultRingCapacity,
                                     budget),
                   "sharded budgeted");
}

TEST(OverlapDeterminism, ShardedReportsMergeTelemetry) {
  const auto sharded = replay_overlapped(4, 1);
  ASSERT_EQ(sharded.size(), 10u);
  bool any_all_busy = false;
  for (const auto& r : sharded) {
    EXPECT_EQ(r.epoch.shards, 4u);
    // Normalized occupancy brackets 1.0 (= perfectly balanced). Quiet
    // intervals can fit in fewer producer batches than there are shards, so
    // min may be 0 there; the attack-heavy intervals must load every shard.
    EXPECT_GE(r.epoch.shard_occupancy_min, 0.0);
    EXPECT_LE(r.epoch.shard_occupancy_min, 1.0 + 1e-9);
    EXPECT_GE(r.epoch.shard_occupancy_max, 1.0 - 1e-9);
    any_all_busy |= r.epoch.shard_occupancy_min > 0.0;
  }
  EXPECT_TRUE(any_all_busy) << "no interval ever loaded all shards";
}

TEST(OverlapDeterminism, ResultsArriveInIntervalOrder) {
  const auto results = replay_overlapped(2, 2);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].interval, i);
  }
}

}  // namespace
}  // namespace hifind
