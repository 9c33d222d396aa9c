// attack_forensics: root-cause analysis on a detected anomaly (paper Sec. 4
// and Sec. 5.4).
//
// After detection names an anomalous key, the operator's questions are:
// WHICH attack class is it (to pick a mitigation), and is the source
// spoofed? This demo detects a mixed-attack interval, then for each alert
// walks the classification evidence the way the paper does:
//   - the 2D-sketch column selected by the key, with its concentration test
//     (top-5-of-64 share vs phi=0.8) — flood vs scan;
//   - the backscatter uniformity verdict on the victim's SYN sources —
//     spoofed vs real attacker;
//   - the mitigation key HiFIND hands to the blocking layer.
//
// Build & run:  ./build/examples/attack_forensics
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "baseline/backscatter.hpp"
#include "core/pipeline.hpp"
#include "gen/scenario.hpp"

namespace {

using namespace hifind;

/// Prints one 2D-sketch column as a 64-cell spark line plus the verdict.
void explain_column(const TwoDSketch32& sketch, std::uint64_t x_key,
                    const char* secondary_name) {
  const auto cells = sketch.column(0, x_key);  // stage 0 as the exhibit
  double total = 0.0, top = 0.0;
  std::vector<double> sorted;
  for (double c : cells) {
    const double v = std::max(c, 0.0);
    sorted.push_back(v);
    total += v;
    top = std::max(top, v);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  double top5 = 0.0;
  for (int i = 0; i < 5; ++i) top5 += sorted[static_cast<std::size_t>(i)];

  std::printf("    %s distribution across 64 buckets: ", secondary_name);
  for (double c : cells) {
    const double v = std::max(c, 0.0);
    const char* glyph = v <= 0        ? "."
                        : v < top / 4 ? "-"
                        : v < top / 2 ? "+"
                                      : "#";
    std::printf("%s", glyph);
  }
  std::printf("\n    top-5 share: %.0f%% (phi=80%%) => %s\n",
              total > 0 ? 100.0 * top5 / total : 0.0,
              sketch.classify(x_key) == ColumnShape::kConcentrated
                  ? "CONCENTRATED (flooding-like)"
                  : "SPREAD (scan-like)");
}

}  // namespace

int main() {
  ScenarioConfig cfg = nu_like_config(/*seed=*/4242, /*duration=*/600);
  cfg.num_spoofed_floods = 1;
  cfg.num_fixed_floods = 1;
  cfg.num_hscans = 1;
  cfg.num_vscans = 1;
  cfg.num_flash_crowds = 0;
  cfg.num_misconfigs = 0;
  const Scenario scenario = build_scenario(cfg);

  // Run the pipeline but keep our own bank copy per interval for forensics
  // (the pipeline clears its bank at each boundary).
  PipelineConfig pc;
  SketchBank bank(pc.bank);
  HifindDetector detector(pc.detector);
  IntervalClock clock(pc.detector.interval_seconds);

  std::uint64_t current = 0;
  bool started = false;
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!started) {
      current = iv;
      started = true;
    }
    while (current < iv) {
      const IntervalResult r = detector.process(bank, current);
      for (const Alert& a : r.final) {
        std::cout << "\n=== " << a.describe() << " ===\n";
        switch (a.type) {
          case AttackType::kSynFlooding: {
            std::cout << "  victim service: " << to_string(a.dip()) << ":"
                      << a.dport() << "\n";
            BackscatterValidator v;
            for (const auto& q : scenario.trace.packets()) {
              if (q.is_syn() && q.dip == a.dip() && q.dport == a.dport()) {
                v.add_source(q.sip);
              }
            }
            const auto verdict = v.verdict();
            std::cout << "  backscatter check: " << verdict.distinct_octets
                      << " distinct /8s, top share "
                      << static_cast<int>(verdict.top_octet_share * 100)
                      << "% => "
                      << (verdict.spoofed_uniform
                              ? "SPOOFED sources (filter at victim, SYN "
                                "cookies)"
                              : "real sources (rate-limit / block list)")
                      << "\n";
            std::cout << "  mitigation key: protect {DIP,Dport}\n";
            break;
          }
          case AttackType::kNonSpoofedSynFlooding:
            std::cout << "  attacker identified: " << to_string(a.sip())
                      << " -> block at ingress\n";
            explain_column(bank.twod_sipdport_dip(), a.key, "victim-DIP");
            break;
          case AttackType::kVerticalScan:
            std::cout << "  scanner " << to_string(a.sip())
                      << " sweeping ports on " << to_string(a.dip()) << "\n";
            explain_column(bank.twod_sipdip_dport(), a.key, "Dport");
            std::cout << "  mitigation key: block {SIP} -> {DIP}\n";
            break;
          case AttackType::kHorizontalScan:
            std::cout << "  scanner " << to_string(a.sip())
                      << " sweeping the network on port " << a.dport()
                      << "\n";
            explain_column(bank.twod_sipdport_dip(), a.key, "victim-DIP");
            std::cout << "  mitigation key: block {SIP} on Dport "
                      << a.dport() << "\n";
            break;
        }
      }
      bank.clear();
      ++current;
    }
    bank.record(p);
  }
  std::cout << "\nDone. Each alert came with the flow key needed for "
               "mitigation — the property per-trace or aggregate detectors "
               "cannot provide.\n";
  return 0;
}
