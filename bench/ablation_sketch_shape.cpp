// Ablation: reversible-sketch shape (stages H, bucket bits) vs accuracy and
// inference behaviour — the systematic study behind the paper's Sec. 5.1
// parameter choices (H = 6, 2^12 buckets for 48-bit keys).
//
// Fixed workload: 30k background keys (+1 each) and 20 planted heavy keys
// (+500). For each shape: mean absolute estimate error over the heavy keys,
// inference recall, raw candidate count (near-collision inflation) next to
// the predicted leaf count (the planted keys plus the slack-1 cost law's
// near-collision leaves, DESIGN.md §5), whether the candidate cap truncated
// the search, and inference wall time.
#include <chrono>
#include <cmath>
#include <iostream>

#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "sketch/reverse_inference.hpp"

namespace hifind::bench {
namespace {

struct Shape {
  std::size_t stages;
  int bucket_bits;
};

void run() {
  TablePrinter table(
      "Ablation: RS shape vs accuracy/inference (48-bit keys, 30k background "
      "+ 20x500 heavy, threshold 250)");
  table.header({"H", "buckets", "mem (hw)", "est err", "recall",
                "raw candidates", "predicted leaves", "capped", "infer ms"});

  const Shape shapes[] = {{3, 12}, {4, 12}, {5, 12}, {6, 12},
                          {6, 6},  {6, 18}, {8, 12}};
  for (const Shape& shape : shapes) {
    ReversibleSketchConfig cfg;
    cfg.key_bits = 48;
    cfg.num_stages = shape.stages;
    cfg.bucket_bits = shape.bucket_bits;
    cfg.seed = 7;
    ReversibleSketch s(cfg);

    Pcg32 rng(42);
    for (int i = 0; i < 30000; ++i) {
      s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
    }
    std::vector<std::uint64_t> heavy;
    for (int i = 0; i < 20; ++i) {
      heavy.push_back(rng.next64() & ((1ULL << 48) - 1));
      s.update(heavy.back(), 500.0);
    }

    double err = 0.0;
    for (const std::uint64_t k : heavy) {
      err += std::abs(s.estimate(k) - 500.0);
    }
    err /= static_cast<double>(heavy.size());

    const auto t0 = std::chrono::steady_clock::now();
    const CounterGrid counters = CounterGrid::widened(s.grid(), 1.0);
    const InferenceResult r = infer_heavy_keys(s, counters, 250.0);
    const auto t1 = std::chrono::steady_clock::now();
    std::size_t found = 0;
    for (const std::uint64_t k : heavy) {
      for (const HeavyKey& h : r.keys) found += h.key == k ? 1 : 0;
    }

    // Every planted key is a leaf. Slack-1 cost law for the rest: a leaf is
    // a key heavy in at least H - 1 of the H stages, so near-collision
    // leaves ~= H * 2^n * (b/B)^(H-1) for n key bits, b heavy buckets per
    // stage and B buckets per stage.
    const double h = static_cast<double>(shape.stages);
    const double b = static_cast<double>(r.heavy_bucket_total) / h;
    const double predicted =
        static_cast<double>(heavy.size()) +
        h * std::ldexp(1.0, cfg.key_bits) *
            std::pow(std::ldexp(b, -shape.bucket_bits), h - 1.0);

    char err_s[16], ms_s[16], recall_s[16], predicted_s[16];
    std::snprintf(err_s, sizeof(err_s), "%.1f", err);
    std::snprintf(predicted_s, sizeof(predicted_s), "%.2g", predicted);
    std::snprintf(ms_s, sizeof(ms_s), "%.1f",
                  std::chrono::duration<double, std::milli>(t1 - t0).count());
    std::snprintf(recall_s, sizeof(recall_s), "%zu/20", found);
    table.row({std::to_string(shape.stages),
               "2^" + std::to_string(shape.bucket_bits),
               std::to_string((std::size_t{1} << shape.bucket_bits) *
                              shape.stages * 4 / 1024) +
                   "K",
               err_s, recall_s, std::to_string(r.keys.size()), predicted_s,
               r.truncated ? "yes" : "no", ms_s});
  }
  table.print(std::cout);
  std::cout << "\nReading: too few buckets (2^6) destroys estimates; more "
               "stages cut near-collision candidates but cost memory and "
               "update accesses — H=6 @ 2^12 (the paper's choice) is the "
               "knee. Predicted leaves are the 20 planted keys plus the "
               "slack-1 near-collision count, and a capped search stops at "
               "max_candidates.\n";
}

}  // namespace
}  // namespace hifind::bench

int main() {
  hifind::bench::run();
  return 0;
}
