// Determinism contract of the overload layer: with load shedding ACTIVE,
// alerts must stay bit-identical to a serial reference applying the same
// shedder inline, at any shard count and ring size — the shed decision is a
// pure function of the packet stream, never of scheduling. Refinement
// verdicts must likewise be a pure function of (bank, flow table, config).
// Suite name is in the CI TSan filter (the shed/evidence mailbox handoffs
// are new cross-thread state).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../testing/synthetic.hpp"
#include "detect/hifind.hpp"
#include "detect/load_shedder.hpp"
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

HifindDetectorConfig det_cfg(std::size_t epoch_threads = 1) {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  c.syn_rate_threshold = 1.0;
  c.min_persist_intervals = 2;
  c.epoch_threads = epoch_threads;
  return c;
}

/// Budget sized so the mixed-attack scenario escalates to level 2 at its
/// peak (~1360 recordable ops/interval) but records un-shed on the benign
/// warm-up intervals — both regimes exercised in one run.
LoadShedderConfig shed_cfg() {
  LoadShedderConfig c;
  c.budget_ops_per_interval = 512;
  return c;
}

/// Same fixed 10-interval mixed-attack scenario as overlap_determinism_test,
/// regenerated per replay so every pipeline sees the identical stream.
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

/// The ground truth: serial record -> process loop with the SAME shedder
/// applied inline. bank.record(p, 2^k) is bit-identical to the pipeline's
/// op-level compensation (delta = syn_delta * w, weight = w in both).
std::vector<IntervalResult> replay_serial_shed() {
  SketchBank bank(bank_cfg());
  HifindDetector detector(det_cfg());
  LoadShedder shed(shed_cfg());
  std::vector<IntervalResult> results;
  auto sink = [&](const PacketRecord& p) {
    RecordOp op{};
    if (!make_record_op(p, 1.0, op)) return;
    const double w = shed.admit(op);
    if (w != 0.0) bank.record(p, w);
  };
  run_scenario(sink, [&](std::uint64_t interval) {
    IntervalResult r = detector.process(bank, interval);
    const ShedReport sr = shed.seal_interval();
    r.coverage.sample_coverage = sr.sample_coverage;
    r.coverage.shed = sr.shed();
    r.coverage.ops_offered = sr.ops_offered;
    r.coverage.ops_shed = sr.ops_shed;
    r.coverage.shed_level_max = sr.level_max;
    results.push_back(std::move(r));
    bank.clear();
  });
  return results;
}

std::vector<IntervalResult> replay_overloaded_pipeline(
    unsigned record_threads, std::size_t epoch_threads = 1,
    std::size_t ring_capacity = ShardedRecorder::kDefaultRingCapacity) {
  OverlappedPipelineConfig cfg;
  cfg.bank = bank_cfg();
  cfg.detector = det_cfg(epoch_threads);
  cfg.record_threads = record_threads;
  cfg.ring_capacity = ring_capacity;
  cfg.shed = shed_cfg();
  OverlappedPipeline pipe(cfg);
  run_scenario(pipe, [&](std::uint64_t) { pipe.close_interval(); });
  pipe.wait_epoch_idle();
  return pipe.take_results();
}

void expect_same_alerts(const std::vector<IntervalResult>& a,
                        const std::vector<IntervalResult>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].interval, b[i].interval) << what << " interval " << i;
    EXPECT_EQ(a[i].raw, b[i].raw) << what << " raw, interval " << i;
    EXPECT_EQ(a[i].after_2d, b[i].after_2d)
        << what << " after_2d, interval " << i;
    EXPECT_EQ(a[i].final, b[i].final) << what << " final, interval " << i;
  }
}

void expect_same_overload_outcome(const std::vector<IntervalResult>& a,
                                  const std::vector<IntervalResult>& b,
                                  const char* what) {
  expect_same_alerts(a, b, what);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].refined, b[i].refined) << what << " refined, interval " << i;
    EXPECT_EQ(a[i].refinement, b[i].refinement)
        << what << " refinement, interval " << i;
    EXPECT_EQ(a[i].coverage.sample_coverage, b[i].coverage.sample_coverage)
        << what << " sample_coverage, interval " << i;
    EXPECT_EQ(a[i].coverage.shed, b[i].coverage.shed)
        << what << " shed, interval " << i;
    EXPECT_EQ(a[i].coverage.ops_offered, b[i].coverage.ops_offered)
        << what << " ops_offered, interval " << i;
    EXPECT_EQ(a[i].coverage.ops_shed, b[i].coverage.ops_shed)
        << what << " ops_shed, interval " << i;
    EXPECT_EQ(a[i].coverage.shed_level_max, b[i].coverage.shed_level_max)
        << what << " shed_level_max, interval " << i;
  }
}

TEST(OverloadDeterminism, SheddingAndRefinementActuallyFire) {
  // Guard against vacuous equality downstream: the scenario must shed on
  // the attack intervals, keep full coverage on the warm-up, still alert,
  // and drive the refinement loop through at least one confirmed verdict.
  const auto results = replay_overloaded_pipeline(2);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_FALSE(results[0].coverage.shed) << "warm-up interval shed";
  EXPECT_EQ(results[0].coverage.sample_coverage, 1.0);
  std::size_t shed_intervals = 0, final_alerts = 0, confirmed = 0;
  std::uint32_t level_max = 0;
  for (const auto& r : results) {
    shed_intervals += r.coverage.shed ? 1 : 0;
    final_alerts += r.final.size();
    confirmed += r.refinement.confirmed;
    level_max = std::max(level_max, r.coverage.shed_level_max);
    if (r.coverage.shed) {
      EXPECT_LT(r.coverage.effective_coverage(), 1.0);
      EXPECT_GE(r.coverage.effective_coverage(),
                shed_cfg().min_coverage());
    }
  }
  EXPECT_GE(shed_intervals, 6u);
  EXPECT_GE(level_max, 2u) << "peak load never escalated past level 1";
  EXPECT_GT(final_alerts, 0u) << "shedding suppressed every alert";
  EXPECT_GT(confirmed, 0u) << "refinement never confirmed an attack";
}

TEST(OverloadDeterminism, ShardedSheddingBitIdenticalToSerialShed) {
  // The acceptance-criteria check: same seed, same config, shedding active,
  // 1/2/4/8 shards — all bit-identical to the serial inline-shed loop.
  const auto serial = replay_serial_shed();
  bool any_shed = false;
  for (const auto& r : serial) any_shed |= r.coverage.shed;
  ASSERT_TRUE(any_shed) << "reference never shed — vacuous test";
  expect_same_alerts(serial, replay_overloaded_pipeline(1), "1 shard");
  expect_same_alerts(serial, replay_overloaded_pipeline(2), "2 shards");
  expect_same_alerts(serial, replay_overloaded_pipeline(4), "4 shards");
  expect_same_alerts(serial, replay_overloaded_pipeline(8), "8 shards");
}

TEST(OverloadDeterminism, ShardCountInvariantIncludesRefinementAndCoverage) {
  // Pipeline-vs-pipeline: beyond the alert streams, the refined alerts,
  // refinement reports, and shed coverage fields must match at every shard
  // count (the serial reference has no refinement loop to compare against).
  const auto one = replay_overloaded_pipeline(1);
  expect_same_overload_outcome(one, replay_overloaded_pipeline(2, 2),
                               "2 shards");
  expect_same_overload_outcome(one, replay_overloaded_pipeline(4, 2),
                               "4 shards");
  expect_same_overload_outcome(one, replay_overloaded_pipeline(8, 1),
                               "8 shards");
}

TEST(OverloadDeterminism, TinyRingsDoNotChangeShedDecisions) {
  // Tiny rings force constant producer backpressure while shedding is
  // active: the backoff path must stay scheduling-only. Also the natural
  // place to see the ring-full telemetry actually plumbed through.
  const auto serial = replay_serial_shed();
  const auto tiny = replay_overloaded_pipeline(3, 2, /*ring_capacity=*/8);
  expect_same_alerts(serial, tiny, "sharded ring 8, shed");
  std::uint64_t ring_full = 0;
  for (const auto& r : tiny) {
    if (!r.epoch.shard_ring_full_spins.empty()) {
      EXPECT_EQ(r.epoch.shard_ring_full_spins.size(), 3u);
    }
    ring_full += r.epoch.ring_full_spins;
  }
  EXPECT_GT(ring_full, 0u) << "ring 8 never filled — telemetry dead?";
}

TEST(OverloadDeterminism, RepeatedRunsAreIdentical) {
  // Same config twice, refinement and shedding active: the whole
  // IntervalResult stream (incl. verdicts) must reproduce exactly.
  expect_same_overload_outcome(replay_overloaded_pipeline(4, 2),
                               replay_overloaded_pipeline(4, 2),
                               "repeat 4 shards");
}

}  // namespace
}  // namespace hifind
