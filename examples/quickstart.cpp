// Quickstart: the five-minute tour of the HiFIND public API.
//
//   1. Build a synthetic labelled trace (you would read packets off a tap).
//   2. Construct a Pipeline: a SketchBank (the paper's nine sketches) plus
//      the three-phase detector.
//   3. Stream the packets through; collect per-interval alerts.
//   4. Score the run against ground truth.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "gen/scenario.hpp"

int main() {
  using namespace hifind;

  // 1. A 10-minute campus-edge trace with a couple of injected attacks.
  ScenarioConfig scenario_cfg = nu_like_config(/*seed=*/2024,
                                               /*duration_seconds=*/600);
  scenario_cfg.num_spoofed_floods = 1;
  scenario_cfg.num_fixed_floods = 1;
  scenario_cfg.num_hscans = 3;
  scenario_cfg.num_vscans = 1;
  const Scenario scenario = build_scenario(scenario_cfg);
  std::cout << "Trace: " << scenario.trace.size() << " packets, "
            << scenario.truth.attacks().size() << " injected attacks\n\n";

  // 2. Paper-default configuration: 13MB sketch bank, 60 s intervals,
  //    threshold of 1 un-responded SYN per second.
  PipelineConfig config;
  config.detector.interval_seconds = 60;
  config.detector.syn_rate_threshold = 1.0;
  Pipeline pipeline(config);

  // 3. Stream packets; print alerts as each interval closes.
  pipeline.on_interval([](const IntervalResult& r) {
    for (const Alert& alert : r.final) {
      std::cout << "[interval " << r.interval << "] " << alert.describe()
                << '\n';
    }
  });
  for (const PacketRecord& packet : scenario.trace.packets()) {
    pipeline.offer(packet);
  }
  pipeline.finish();

  // 4. How did we do?
  const EvaluationSummary score =
      evaluate(pipeline.results(), scenario.truth, IntervalClock(60));
  std::cout << "\nDetected " << score.attack_events_detected << "/"
            << score.attack_events << " injected attacks; "
            << score.alerts_unexplained << " unexplained false alarms.\n";
  std::cout << "Sketch memory: " << pipeline.bank().memory_bytes() / 1e6
            << " MB (4-byte interval counters) — independent of traffic "
               "volume.\n";
  return 0;
}
