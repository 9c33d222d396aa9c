// Golden alerts of every user path. Each case replays a short generated
// trace through one pipeline a user runs and pins an FNV-1a digest of the
// final alerts plus the three counters that show how the epoch degraded:
// reverse-inference work, truncated intervals and shed ops. A change to the
// detection arithmetic, the recording state or the epoch that moves any
// alert of any path fails here, not only in a manual replay diff.
//
//   SerialReversible   the default Pipeline (reversible backend, DFS
//                      reversal), as `trace_tool detect` runs it;
//   OverlappedCompact  OverlappedPipeline with the compact backend pinned
//                      on spoofed floods;
//   OverlappedShedBudget  OverlappedPipeline with a shed budget and an
//                      EpochBudget deadline on an attack-heavy mix: the
//                      path where shedding and truncation work.
//
// The inputs are the perfbench workloads' presets cut to 10 minutes. The
// traces are fed straight to the pipelines (no pcap or NetFlow file): the
// decoders have their own suites. Suite name is in the CI TSan filter.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/interval.hpp"
#include "core/pipeline.hpp"
#include "detect/overlapped.hpp"
#include "gen/scenario.hpp"

namespace hifind {
namespace {

struct Golden {
  std::uint64_t digest{0};
  std::uint64_t inference_work{0};
  std::uint64_t truncated_intervals{0};
  std::uint64_t shed_ops{0};
  std::uint64_t alerts_final{0};
};

/// Order-sensitive FNV-1a over (interval, type, key, magnitude bits) of
/// every interval's final alerts, with the counters summed alongside.
Golden summarize(const std::vector<IntervalResult>& results) {
  Golden g;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const IntervalResult& r : results) {
    mix(r.final.size());
    for (const Alert& a : r.final) {
      mix(a.interval);
      mix(static_cast<std::uint64_t>(a.type));
      mix(a.key);
      mix(std::bit_cast<std::uint64_t>(a.magnitude));
    }
    g.inference_work += r.epoch.inference_work;
    g.truncated_intervals += r.epoch.truncated;
    g.shed_ops += r.coverage.ops_shed;
    g.alerts_final += r.final.size();
  }
  g.digest = h;
  return g;
}

/// Drives an OverlappedPipeline over `trace` the way a capture loop does:
/// one close per elapsed interval, then a final close of the tail.
std::vector<IntervalResult> run_overlapped(const OverlappedPipelineConfig& c,
                                           const Trace& trace) {
  OverlappedPipeline pipe(c);
  const IntervalClock clock(c.detector.interval_seconds);
  std::uint64_t current = 0;
  for (const PacketRecord& p : trace.packets()) {
    for (const std::uint64_t iv = clock.interval_of(p.ts); current < iv;
         ++current) {
      pipe.close_interval();
    }
    pipe.offer(p);
  }
  pipe.close_interval();
  pipe.wait_epoch_idle();
  return pipe.take_results();
}

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_GT(got.alerts_final, 0u) << "a path that never alerts pins nothing";
  EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
  EXPECT_EQ(got.inference_work, want.inference_work);
  EXPECT_EQ(got.truncated_intervals, want.truncated_intervals);
  EXPECT_EQ(got.shed_ops, want.shed_ops);
  EXPECT_EQ(got.alerts_final, want.alerts_final);
}

TEST(UserPathGolden, SerialReversible) {
  // nu_pcap's preset (NU-like campus mix, seed 1), 10 minutes, without
  // the flash crowds, misconfigurations and server failures: with them the
  // DFS reversal of a 10-minute trace takes 10-40 s. Every flood alert
  // still passes the Phase-3 service filter, which reads the SYN/ACK
  // history.
  ScenarioConfig sc = nu_like_config(1, 600);
  sc.num_flash_crowds = 0;
  sc.num_misconfigs = 0;
  sc.num_server_failures = 0;
  const Scenario s = build_scenario(sc);
  PipelineConfig c;
  c.detector.epoch_threads = 2;
  Pipeline pipe(c);
  const Golden g = summarize(pipe.run(s.trace));
  expect_golden(g, Golden{.digest = 0x930e40a5b16de880ULL,
                          .inference_work = 10799769,
                          .truncated_intervals = 0,
                          .shed_ops = 0,
                          .alerts_final = 137});
}

TEST(UserPathGolden, OverlappedCompact) {
  // flood_nf5's preset (overlapping spoofed floods of 4-8 intervals) at
  // 2^14 spoofed sources per interval instead of 2^18, 10 minutes.
  ScenarioConfig sc = million_flow_config(7, std::size_t{1} << 14);
  sc.duration_seconds = 600;
  sc.num_spoofed_floods = 8;
  sc.spoofed_flood_duration_min = 240.0;
  sc.spoofed_flood_duration_max = 480.0;
  const Scenario s = build_scenario(sc);
  OverlappedPipelineConfig c;
  c.bank.backend = SketchBackendKind::kCompact;
  c.record_threads = 1;
  c.detector.epoch_threads = 1;
  const Golden g = summarize(run_overlapped(c, s.trace));
  expect_golden(g, Golden{.digest = 0xf0cf564a46c7c037ULL,
                          .inference_work = 625,
                          .truncated_intervals = 0,
                          .shed_ops = 0,
                          .alerts_final = 24});
}

TEST(UserPathGolden, OverlappedShedBudget) {
  // overload_pcap's attack-heavy NU mix (seed 7), 10 minutes, with its
  // shed budget and 20 ms epoch deadline.
  ScenarioConfig sc = nu_like_config(7, 600);
  sc.num_spoofed_floods = 10;
  sc.num_fixed_floods = 8;
  sc.num_hscans = 60;
  sc.num_vscans = 16;
  sc.num_block_scans = 2;
  const Scenario s = build_scenario(sc);
  OverlappedPipelineConfig c;
  c.record_threads = 1;
  c.detector.epoch_threads = 1;
  c.shed.budget_ops_per_interval = 65536;
  c.detector.budget.deadline_ms = 20.0;
  const Golden g = summarize(run_overlapped(c, s.trace));
  expect_golden(g, Golden{.digest = 0xdb39dce48d5fa76aULL,
                          .inference_work = 2703584,
                          .truncated_intervals = 8,
                          .shed_ops = 2320864,
                          .alerts_final = 39});
}

}  // namespace
}  // namespace hifind
