// Sec. 5.5.3 reproduction (recording-throughput half), as google-benchmark.
//
// Paper software numbers: 11M insertions/s for one reversible sketch
// (239M records in 20.6 s), translating to ~3.7 Gbps of worst-case 40-byte
// packets. Each benchmark reports items/s; the derived worst-case line rate
// is items/s * 320 bits.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "detect/hifind.hpp"
#include "detect/sketch_bank.hpp"
#include "gen/scenario.hpp"
#include "sketch/kary_sketch.hpp"
#include "sketch/reverse_inference.hpp"
#include "sketch/reversible_sketch.hpp"
#include "sketch/sketch2d.hpp"

namespace hifind {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, int bits) {
  Pcg32 rng(7);
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next64() & mask;
  return keys;
}

void BM_ReversibleSketchUpdate48(benchmark::State& state) {
  ReversibleSketch s(ReversibleSketchConfig{.key_bits = 48, .num_stages = 6,
                                            .bucket_bits = 12, .seed = 1});
  const auto keys = random_keys(1 << 16, 48);
  std::size_t i = 0;
  for (auto _ : state) {
    s.update(keys[i++ & 0xffff], 1.0);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["worst_case_Gbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 320e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReversibleSketchUpdate48);

void BM_ReversibleSketchUpdate64(benchmark::State& state) {
  ReversibleSketch s(ReversibleSketchConfig{.key_bits = 64, .num_stages = 6,
                                            .bucket_bits = 16, .seed = 1});
  const auto keys = random_keys(1 << 16, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    s.update(keys[i++ & 0xffff], 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReversibleSketchUpdate64);

void BM_KarySketchUpdate(benchmark::State& state) {
  KarySketch s(KarySketchConfig{.num_stages = 6, .num_buckets = 1u << 14,
                                .seed = 1});
  const auto keys = random_keys(1 << 16, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    s.update(keys[i++ & 0xffff], 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KarySketchUpdate);

void BM_TwoDSketchUpdate(benchmark::State& state) {
  TwoDSketch s(Sketch2dConfig{.num_stages = 5, .x_buckets = 1u << 12,
                              .y_buckets = 64, .seed = 1});
  const auto keys = random_keys(1 << 16, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t k = keys[i++ & 0xffff];
    s.update(k, k >> 48, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoDSketchUpdate);

void BM_SketchBankRecord(benchmark::State& state) {
  // Full data-recording path: every sketch in the bank, per packet.
  SketchBank bank{SketchBankConfig{}};
  Pcg32 rng(3);
  std::vector<PacketRecord> packets(1 << 14);
  for (auto& p : packets) {
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{rng.next()};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.bounded(1024));
    p.flags = rng.chance(0.5) ? kSyn : (kSyn | kAck);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    bank.record(packets[i++ & 0x3fff]);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["worst_case_Gbps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 320e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SketchBankRecord);

void BM_SketchCombine(benchmark::State& state) {
  // Central-site aggregation cost: COMBINE of two paper-shaped banks.
  const SketchBankConfig cfg{};
  SketchBank a(cfg), b(cfg);
  for (auto _ : state) {
    SketchBank combined =
        SketchBank::combine(std::vector<const SketchBank*>{&a, &b});
    benchmark::DoNotOptimize(combined);
  }
}
BENCHMARK(BM_SketchCombine);

void BM_ReverseInference(benchmark::State& state) {
  // Inference cost vs number of concurrent anomalies (paper stress test
  // pushes 100 per interval).
  const auto num_heavy = static_cast<std::size_t>(state.range(0));
  ReversibleSketch s(ReversibleSketchConfig{.key_bits = 48, .num_stages = 6,
                                            .bucket_bits = 12, .seed = 5});
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14, .seed = 6});
  Pcg32 rng(11);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next64() & ((1ULL << 48) - 1);
    s.update(k, 1.0);
    verif.update(k, 1.0);
  }
  for (std::size_t i = 0; i < num_heavy; ++i) {
    const std::uint64_t k = rng.next64() & ((1ULL << 48) - 1);
    s.update(k, 500.0);
    verif.update(k, 500.0);
  }
  InferenceOptions opts;
  opts.verifier = [&verif](std::uint64_t key, double) {
    return verif.estimate(key) >= 250.0;
  };
  // Top-anomalies mode (paper stress setting): bounds the search tree so
  // the benchmark measures per-anomaly cost rather than the slack-1
  // cross-product blowup at 100 concurrent anomalies in 2^12 buckets.
  opts.max_heavy_per_stage = 100;
  const CounterGrid counters = CounterGrid::widened(s.grid(), 1.0);
  for (auto _ : state) {
    auto r = infer_heavy_keys(s, counters, 250.0, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ReverseInference)->Arg(1)->Arg(10)->Arg(50);

void BM_DetectionInterval(benchmark::State& state) {
  // Full per-interval detection on a realistic attack-rich interval. The
  // whole 7-minute attack mix lands in ONE interval — comparable to the
  // paper's stress test, so run in its top-100 anomalies mode.
  const Scenario scenario = build_scenario(nu_like_config(99, 420));
  const SketchBankConfig bank_cfg{};
  HifindDetectorConfig det_cfg;
  det_cfg.inference.max_heavy_per_stage = 100;
  SketchBank quiet(bank_cfg);   // warmup interval: empty baseline
  SketchBank bank(bank_cfg);    // measured interval: the full attack mix
  for (const auto& p : scenario.trace.packets()) bank.record(p);
  for (auto _ : state) {
    state.PauseTiming();
    HifindDetector detector(det_cfg);
    detector.process(quiet, 0);  // primes forecasters at zero baseline
    state.ResumeTiming();
    auto r = detector.process(bank, 1);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DetectionInterval)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hifind

BENCHMARK_MAIN();
