// multi_vantage: aggregated detection across edge routers (paper Fig. 1b/c,
// Sec. 3.1, Sec. 5.3.2).
//
// A campus with three edge routers and per-packet load balancing: each
// packet — including the two halves of one handshake — takes a random
// router. Each router records into its own SketchBank; once a minute the
// central site COMBINEs the banks (a few MB each, not packet traces) and
// runs one detector on the sum. The demo shows the aggregated verdicts are
// IDENTICAL to a hypothetical single router seeing everything, while a
// per-flow IDS (TRW) run per-router degrades badly.
//
// A second act covers the imperfect network: the same trace collected
// through the resilient layer (router/collector.hpp) while router 2
// suffers a three-interval outage. Detection keeps running on the rescaled
// partial sums, and every interval's CoverageReport says exactly which
// routers made it into the combine.
//
// Build & run:  ./build/examples/multi_vantage
#include <iostream>
#include <set>

#include "baseline/trw.hpp"
#include "core/pipeline.hpp"
#include "gen/scenario.hpp"
#include "router/collector.hpp"
#include "router/distributed.hpp"
#include "router/faulty_channel.hpp"

int main() {
  using namespace hifind;

  ScenarioConfig cfg = nu_like_config(/*seed=*/31337, /*duration=*/600);
  cfg.num_hscans = 4;
  cfg.num_vscans = 1;
  const Scenario scenario = build_scenario(cfg);

  const PipelineConfig pc;  // paper defaults

  // Reference: one router sees everything.
  Pipeline single(pc);
  const auto reference = single.run(scenario.trace);

  // Reality: three routers, random per-packet split, central aggregation.
  DistributedMonitor monitor(3, pc.bank, pc.detector);
  IntervalClock clock(pc.detector.interval_seconds);
  std::vector<IntervalResult> aggregated;
  std::uint64_t interval = 0;
  bool started = false;
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!started) {
      interval = iv;
      started = true;
    }
    while (interval < iv) {
      aggregated.push_back(monitor.end_interval(interval++));
    }
    monitor.feed(p);
  }
  aggregated.push_back(monitor.end_interval(interval));

  std::size_t identical = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    bool same = reference[i].final.size() == aggregated[i].final.size();
    for (std::size_t j = 0; same && j < reference[i].final.size(); ++j) {
      same = reference[i].final[j].key == aggregated[i].final[j].key;
    }
    identical += same ? 1 : 0;
    for (const Alert& a : aggregated[i].final) {
      std::cout << "[aggregated, interval " << i << "] " << a.describe()
                << '\n';
    }
  }
  std::cout << "\nIdentical intervals (aggregated vs single vantage): "
            << identical << "/" << reference.size() << '\n';
  std::cout << "State shipped to the central site per interval: "
            << monitor.bytes_shipped_per_interval() / 1e6 << " MB total "
            << "(3 sketch banks) — independent of traffic volume.\n";

  // Contrast: TRW per router, alerts summed.
  Trw whole{TrwConfig{}};
  std::vector<Trw> per_router;
  for (int i = 0; i < 3; ++i) per_router.emplace_back(TrwConfig{});
  PacketSplitter splitter(3, 9);
  for (const auto& p : scenario.trace.packets()) {
    whole.observe(p);
    per_router[splitter.route(p)].observe(p);
  }
  const Timestamp end =
      scenario.trace.stats().last_ts + 61 * kMicrosPerSecond;
  whole.flush(end);
  std::set<std::uint32_t> whole_sips, split_sips;
  for (const auto& a : whole.alerts()) whole_sips.insert(a.sip.addr);
  for (auto& t : per_router) {
    t.flush(end);
    for (const auto& a : t.alerts()) split_sips.insert(a.sip.addr);
  }
  std::cout << "\nTRW flagged sources — whole traffic: " << whole_sips.size()
            << ", per-router sum under load balancing: " << split_sips.size()
            << " (the inflation is benign traffic whose handshake halves "
               "landed on different routers).\n";

  // Act two: the same trace through the fault-tolerant collection layer,
  // with router 2 dark for three intervals mid-trace. Banks travel as
  // checksummed HFB4 frames through a FaultyChannel; the collector waits
  // out stragglers, then finalizes on the partial sum and says so.
  std::cout << "\n--- resilient collection with an injected outage ---\n";
  DistributedMonitor edge(3, pc.bank, pc.detector);
  FaultyChannel channel(3, /*seed=*/7);
  ResilientAggregator central(
      [] {
        CollectorConfig c;
        c.num_routers = 3;
        c.deadline_polls = 1;
        return c;
      }(),
      pc.bank, pc.detector,
      [&channel](std::size_t router, std::uint64_t iv) {
        return channel.fetch(router, iv);
      });

  auto ship_boundary = [&](std::uint64_t iv) {
    for (std::size_t r = 0; r < edge.num_routers(); ++r) {
      channel.ship(r, iv, edge.ship_and_clear(r, iv));
    }
    channel.advance_to(iv);
    for (const IntervalResult& res : central.end_interval(iv)) {
      std::cout << "interval " << res.interval << ": "
                << res.coverage.describe() << ", " << res.final.size()
                << " alert(s)\n";
      for (const Alert& a : res.final) std::cout << "    " << a.describe()
                                                 << '\n';
    }
  };

  started = false;
  interval = 0;
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!started) {
      interval = iv;
      started = true;
      // Router 2 goes dark for three intervals in the middle of the trace.
      channel.set_outage(2, iv + 3, iv + 5);
    }
    while (interval < iv) ship_boundary(interval++);
    edge.feed(p);
  }
  ship_boundary(interval);
  ship_boundary(interval + 1);  // flush the last interval past its deadline

  const auto& stats = central.collector().stats();
  std::cout << "collector: " << stats.frames_received << " frames received, "
            << stats.intervals_degraded
            << " interval(s) finalized degraded — detection never stopped, "
               "and every degraded interval is labeled.\n";
  return 0;
}
