// Sec. 5.3.2 as an integration test: split a full scenario over 3 routers
// with per-packet load balancing; aggregated detection must equal the
// single-router run EXACTLY (sketch linearity), while TRW run per-router and
// summed degrades.
#include <gtest/gtest.h>

#include "baseline/trw.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "gen/scenario.hpp"
#include "detect/sketch_wire.hpp"
#include "router/distributed.hpp"

namespace hifind {
namespace {

SketchBankConfig bank_cfg() {
  SketchBankConfig c;
  c.seed = 42;
  return c;
}

HifindDetectorConfig det_cfg() {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  return c;
}

TEST(MultiRouterTest, AggregatedAlertsIdenticalToSingleRouter) {
  const Scenario scenario = build_scenario(nu_like_config(31, 600));

  // Single-router reference.
  PipelineConfig pc;
  pc.bank = bank_cfg();
  pc.detector = det_cfg();
  Pipeline single(pc);
  const auto ref = single.run(scenario.trace);

  // Three routers, per-packet random split.
  DistributedMonitor mon(3, bank_cfg(), det_cfg());
  IntervalClock clock(60);
  std::vector<IntervalResult> agg;
  std::uint64_t current = 0;
  bool any = false;
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!any) {
      current = iv;
      any = true;
    }
    while (current < iv) {
      agg.push_back(mon.end_interval(current++));
    }
    mon.feed(p);
  }
  agg.push_back(mon.end_interval(current));

  ASSERT_EQ(agg.size(), ref.size());
  for (std::size_t i = 0; i < agg.size(); ++i) {
    ASSERT_EQ(agg[i].final.size(), ref[i].final.size()) << "interval " << i;
    for (std::size_t j = 0; j < agg[i].final.size(); ++j) {
      EXPECT_EQ(agg[i].final[j].type, ref[i].final[j].type);
      EXPECT_EQ(agg[i].final[j].key, ref[i].final[j].key);
      EXPECT_NEAR(agg[i].final[j].magnitude, ref[i].final[j].magnitude, 1e-6);
    }
  }
}

TEST(MultiRouterTest, DetectionOverShippedBanksMatchesLocal) {
  // The full distributed loop including the wire: routers serialize their
  // banks, the central site deserializes, COMBINEs, and detects — results
  // must equal an all-local run.
  SketchBankConfig cfg;
  cfg.seed = 42;
  HifindDetectorConfig det_cfg;
  det_cfg.min_persist_intervals = 1;

  SketchBank r1(cfg), r2(cfg), local(cfg);
  HifindDetector det_shipped(det_cfg), det_local(det_cfg);
  Pcg32 rng(5);

  auto run_interval = [&](bool flood, std::uint64_t idx) {
    for (int i = 0; i < 60; ++i) {
      PacketRecord syn;
      syn.ts = i;
      syn.sip = IPv4{0x64000000u + static_cast<std::uint32_t>(i)};
      syn.dip = IPv4(129, 105, 1, 1);
      syn.sport = static_cast<std::uint16_t>(20000 + i);
      syn.dport = 443;
      syn.flags = kSyn;
      PacketRecord synack;
      synack.ts = i;
      synack.sip = syn.dip;
      synack.dip = syn.sip;
      synack.sport = 443;
      synack.dport = syn.sport;
      synack.flags = kSyn | kAck;
      synack.outbound = true;
      (rng.chance(0.5) ? r1 : r2).record(syn);
      (rng.chance(0.5) ? r1 : r2).record(synack);
      local.record(syn);
      local.record(synack);
    }
    if (flood) {
      for (int i = 0; i < 400; ++i) {
        PacketRecord p;
        p.ts = 1000 + i;
        p.sip = IPv4{rng.next()};
        p.dip = IPv4(129, 105, 1, 1);
        p.sport = static_cast<std::uint16_t>(1024 + i);
        p.dport = 443;
        p.flags = kSyn;
        (rng.chance(0.5) ? r1 : r2).record(p);
        local.record(p);
      }
    }
    // Ship both banks as bytes, reconstruct, combine.
    SketchBank shipped1 = deserialize_frame(serialize_frame(r1, 0, 0)).bank;
    SketchBank shipped2 = deserialize_frame(serialize_frame(r2, 0, 0)).bank;
    const std::vector<const SketchBank*> terms{&shipped1, &shipped2};
    shipped1.merge_shards(terms);
    const IntervalResult agg = det_shipped.process(shipped1, idx);
    const IntervalResult ref = det_local.process(local, idx);
    r1.clear();
    r2.clear();
    local.clear();
    return std::make_pair(agg, ref);
  };

  run_interval(false, 0);
  const auto [agg, ref] = run_interval(true, 1);
  ASSERT_GE(ref.final.size(), 1u);
  ASSERT_EQ(agg.final.size(), ref.final.size());
  for (std::size_t i = 0; i < agg.final.size(); ++i) {
    EXPECT_EQ(agg.final[i].key, ref.final[i].key);
    EXPECT_NEAR(agg.final[i].magnitude, ref.final[i].magnitude, 1e-9);
  }
}

TEST(MultiRouterTest, PerRouterTrwDegradesUnderSplit) {
  // TRW needs to see a connection's SYN and SYN/ACK at the SAME vantage
  // point; a per-packet split sends them to different routers 2/3 of the
  // time, so benign traffic turns into apparent failures (false positives).
  const ScenarioConfig cfg = [] {
    ScenarioConfig c = nu_like_config(32, 600);
    c.num_hscans = 0;  // pure benign: any TRW alert is a false positive
    c.num_vscans = 0;
    c.num_block_scans = 0;
    c.num_spoofed_floods = 0;
    c.num_fixed_floods = 0;
    c.num_misconfigs = 0;
    c.num_flash_crowds = 0;
    c.num_server_failures = 0;
    return c;
  }();
  const Scenario scenario = build_scenario(cfg);

  // Whole-traffic TRW as reference.
  Trw whole{TrwConfig{}};
  // Per-router TRWs under per-packet load balancing.
  std::vector<Trw> split;
  for (int i = 0; i < 3; ++i) split.emplace_back(TrwConfig{});
  PacketSplitter splitter(3, 5);

  for (const auto& p : scenario.trace.packets()) {
    whole.observe(p);
    split[splitter.route(p)].observe(p);
  }
  const Timestamp end = scenario.trace.stats().last_ts + 61 * kMicrosPerSecond;
  whole.flush(end);
  std::size_t split_alerts = 0;
  for (auto& t : split) {
    t.flush(end);
    split_alerts += t.alerts().size();
  }

  EXPECT_GT(split_alerts, whole.alerts().size() + 5)
      << "splitting must inflate TRW false positives (benign-only trace)";
}

}  // namespace
}  // namespace hifind
