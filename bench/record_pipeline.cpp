// Recording-pipeline throughput (paper Sec. 5.5.3), as google-benchmark.
//
// Measures items/s (recordable packets per second) for:
//   - Serial:   SketchBank::record per packet, one thread;
//   - Sharded:  the shared-nothing recorder (per-worker private SketchBank
//               replicas, each op copied into exactly ONE ring, plain
//               non-atomic stores), record + drain — the ingest-path
//               number; in production the seal merge runs on the epoch
//               thread, overlapped with the next interval exactly like
//               detection itself (close_stall_us is the tripwire if it ever
//               bleeds back into ingest);
//   - ShardMerge: the seal-time SketchBank::merge_shards reduction alone,
//               isolating what the epoch thread absorbs per seal (a
//               function of bank size, not traffic volume — it amortizes
//               over the interval);
//   - UnsheddedIngest/OverloadedIngest: the full OverlappedPipeline ingest
//     path (offer + close, epochs overlapped) without and with the load
//     shedder escalated by a tight recording budget. The overloaded variant
//     must SUSTAIN offered load well past the unshedded saturation rate —
//     shed ops cost one hash — while holding coverage above the configured
//     floor and close_stall_us at 0 (the ISSUE acceptance gates);
//   - UpdatePair: single-sketch scalar update() vs update_batch(), timed
//     pass by pass on one sketch, on the bank's largest reversible sketch
//     (64-bit keys, 2^16 buckets) and on a verification-shaped k-ary sketch,
//     both over the int32 counters the bank records into.
//
// bench/run_record_pipeline.py runs this binary and distills
// BENCH_throughput.json; future PRs regress against that file.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "detect/overlapped.hpp"
#include "detect/sharded_recorder.hpp"
#include "detect/sketch_bank.hpp"
#include "gen/scenario.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/sketch_ops.hpp"

namespace hifind {
namespace {

/// Worst-case interval: every packet is a SYN or SYN-ACK, so every packet
/// touches every sketch (non-recordable packets are nearly free either way).
std::vector<PacketRecord> recordable_stream(std::size_t n) {
  Pcg32 rng(3);
  std::vector<PacketRecord> packets(n);
  for (auto& p : packets) {
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{rng.next()};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.bounded(1024));
    p.flags = rng.chance(0.5) ? kSyn : (kSyn | kAck);
  }
  return packets;
}

constexpr std::size_t kStreamLen = 1 << 15;

void BM_SerialRecord(benchmark::State& state) {
  SketchBank bank{SketchBankConfig{}};
  const auto stream = recordable_stream(kStreamLen);
  for (auto _ : state) {
    for (const auto& p : stream) bank.record(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_SerialRecord)->UseRealTime();

void BM_ShardedRecorder(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const auto stream = recordable_stream(kStreamLen);
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < n; ++i) {
    banks.push_back(std::make_unique<SketchBank>(SketchBankConfig{}));
    shards.push_back(banks.back().get());
  }
  ShardedRecorder rec(shards);
  for (auto _ : state) {
    for (const auto& p : stream) rec.offer(p);
    rec.drain();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
  state.counters["worst_case_Gbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(stream.size()) * 320e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedRecorder)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ShardMerge(benchmark::State& state) {
  // Merge cost alone, on shards pre-loaded with a full worst-case interval
  // dealt round-robin (so per-shard occupancy mirrors the recorder's).
  const unsigned n = static_cast<unsigned>(state.range(0));
  const auto stream = recordable_stream(kStreamLen);
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < n; ++i) {
    banks.push_back(std::make_unique<SketchBank>(SketchBankConfig{}));
    shards.push_back(banks.back().get());
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    shards[i % n]->record(stream[i]);
  }
  SketchBank merged{SketchBankConfig{}};
  for (auto _ : state) {
    merged.merge_shards(
        std::span<const SketchBank* const>(shards.data(), shards.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardMerge)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Overload: full pipeline ingest (offer + close) with and without shedding.

/// One pipeline per bench run. The bank is small and the detection threshold
/// is out of reach so epochs stay trivial: this measures the INGEST path,
/// and any epoch bleed-back into it shows up as close_stall_us != 0.
OverlappedPipelineConfig ingest_pipe_cfg(std::uint64_t shed_budget) {
  OverlappedPipelineConfig cfg;
  cfg.bank.seed = 42;
  cfg.bank.rs48.bucket_bits = 12;
  cfg.bank.rs64.bucket_bits = 8;
  cfg.bank.verification.num_buckets = 1u << 10;
  cfg.bank.original.num_buckets = 1u << 10;
  cfg.bank.twod.x_buckets = 1u << 8;
  cfg.bank.twod.y_buckets = 16;
  cfg.detector.interval_seconds = 60;
  cfg.detector.syn_rate_threshold = 1e9;
  cfg.record_threads = 2;
  cfg.shed.budget_ops_per_interval = shed_budget;
  return cfg;
}

void ingest_bench(benchmark::State& state, std::uint64_t shed_budget) {
  OverlappedPipeline pipe(ingest_pipe_cfg(shed_budget));
  const auto stream = recordable_stream(kStreamLen);
  double coverage = 1.0;
  std::uint32_t level_max = 0;
  for (auto _ : state) {
    for (const auto& p : stream) pipe.offer(p);
    pipe.close_interval();
    // Pace the closes like production does (60 s of traffic per close, not
    // back-to-back): let the epoch drain OUTSIDE the timed region so
    // close_stall_us reports genuine epoch bleed-back into ingest, not the
    // bench's own pathological close rate.
    state.PauseTiming();
    pipe.wait_epoch_idle();
    for (const IntervalResult& r : pipe.take_results()) {
      coverage = r.coverage.sample_coverage;
      level_max = std::max(level_max, r.coverage.shed_level_max);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
  state.counters["close_stall_us"] =
      static_cast<double>(pipe.close_stall_us());
  state.counters["sample_coverage"] = coverage;
  state.counters["shed_level_max"] = static_cast<double>(level_max);
}

void BM_UnsheddedIngest(benchmark::State& state) {
  ingest_bench(state, /*shed_budget=*/0);
}
BENCHMARK(BM_UnsheddedIngest)->UseRealTime();

void BM_OverloadedIngest(benchmark::State& state) {
  // Budget at 1/16 of the interval's offered ops: the shedder escalates to
  // ~level 4, so most ops cost one mix64 + branch and ingest must sustain
  // a multiple of the unshedded saturation rate.
  ingest_bench(state, /*shed_budget=*/kStreamLen / 16);
}
BENCHMARK(BM_OverloadedIngest)->UseRealTime();

std::vector<KeyDelta> random_ops(std::size_t n, int bits) {
  Pcg32 rng(7);
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<KeyDelta> ops(n);
  for (auto& op : ops) {
    op.key = rng.next64() & mask;
    op.delta = 1;
  }
  return ops;
}

// Scalar update() per op vs one update_batch() over the same ops, on ONE
// sketch, alternating pass by pass: host noise and cache state hit both arms
// alike, so their ratio reads the code. Two separate benchmarks run a minute
// apart put the host's 5-20% run-to-run spread straight into the ratio.
template <class Sketch>
void update_pair(benchmark::State& state, Sketch sketch, int key_bits) {
  using Clock = std::chrono::steady_clock;
  const auto ops = random_ops(kStreamLen, key_bits);
  Clock::duration scalar{};
  Clock::duration batch{};
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    for (const auto& op : ops) sketch.update(op.key, op.delta);
    const Clock::time_point t1 = Clock::now();
    sketch.update_batch(ops);
    const Clock::time_point t2 = Clock::now();
    scalar += t1 - t0;
    batch += t2 - t1;
  }
  benchmark::DoNotOptimize(sketch.counters().data());
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(ops.size());
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  state.counters["scalar_items_per_second"] = items / seconds(scalar);
  state.counters["batch_items_per_second"] = items / seconds(batch);
}

// The bank's largest reversible sketch (64-bit keys, 2^16 buckets): the
// staged, prefetched batch path.
void BM_UpdatePairRS64(benchmark::State& state) {
  update_pair(state,
              ReversibleSketch(ReversibleSketchConfig{
                  .key_bits = 64, .num_stages = 6, .bucket_bits = 16,
                  .seed = 1}),
              64);
}
BENCHMARK(BM_UpdatePairRS64);

// A verification-shaped k-ary sketch (384 KiB). Both arms hash through the
// stage-transposed table, and neither prefetches (the shape is
// cache-resident); the batch arm skips the per-op call and bounds the live
// key bytes once per batch, so the ratio reads about 1.
void BM_UpdatePairKary(benchmark::State& state) {
  update_pair(state,
              KarySketch(KarySketchConfig{
                  .num_stages = 6, .num_buckets = 1u << 14, .seed = 1}),
              64);
}
BENCHMARK(BM_UpdatePairKary);

// ---------------------------------------------------------------------------
// Million-flow (TLB-stress) scenario: the gen/ preset whose spoofed floods
// draw a fresh uniform 32-bit source per SYN, so the measured interval
// carries `distinct` distinct client IPs. Recording it walks every sketch's
// counter array at maximum entropy — the memory-hierarchy regime the
// vectorized index precomputation and hugepage placement target.

/// RecordOps of the preset's measured interval [120 s, 180 s). Cached per
/// distinct-count: scenario synthesis costs far more than one bench pass.
const std::vector<RecordOp>& million_flow_ops(std::size_t distinct) {
  static std::map<std::size_t, std::vector<RecordOp>> cache;
  auto it = cache.find(distinct);
  if (it != cache.end()) return it->second;
  const Scenario scenario = build_scenario(million_flow_config(7, distinct));
  std::vector<RecordOp> ops;
  ops.reserve(distinct + distinct / 4);
  const Timestamp lo = Timestamp{120} * kMicrosPerSecond;
  const Timestamp hi = Timestamp{180} * kMicrosPerSecond;
  for (const PacketRecord& p : scenario.trace.packets()) {
    if (p.ts < lo || p.ts >= hi) continue;
    RecordOp op;
    if (make_record_op(p, 1.0, op)) ops.push_back(op);
  }
  return cache.emplace(distinct, std::move(ops)).first->second;
}

void BM_MillionFlowVectorized(benchmark::State& state) {
  const auto& ops = million_flow_ops(static_cast<std::size_t>(state.range(0)));
  SketchBank bank{SketchBankConfig{}};
  for (auto _ : state) {
    bank.record_ops(ops, SketchBank::kGroupAll);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ops.size()));
  state.counters["distinct_clients"] = static_cast<double>(state.range(0));
  state.counters["interval_ops"] = static_cast<double>(ops.size());
}
// 2^21 ~= 2.1M distinct clients is the headline row; 2^18 is the reduced
// variant CI's bench smoke filters to (scenario synthesis stays ~seconds).
BENCHMARK(BM_MillionFlowVectorized)
    ->Arg(1 << 21)
    ->Arg(1 << 18)
    ->UseRealTime();

}  // namespace
}  // namespace hifind

BENCHMARK_MAIN();
