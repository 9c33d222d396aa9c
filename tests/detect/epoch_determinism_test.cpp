// The parallel fused detection epoch must be a pure refactor of the serial
// one: for the same packet stream, the detector must emit BIT-IDENTICAL
// alerts (raw, after_2d, final) regardless of epoch thread count or SIMD
// backend. Also exercised under TSan in CI (suite name is in the TSan
// filter), where the task-pool handoffs are checked for races.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "../testing/synthetic.hpp"
#include "detect/hifind.hpp"
#include "sketch/simd_ops.hpp"

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

HifindDetectorConfig det_cfg(std::size_t epoch_threads, ForecastModel model) {
  HifindDetectorConfig c;
  c.forecast_model = model;
  c.interval_seconds = 60;
  c.syn_rate_threshold = 1.0;
  c.min_persist_intervals = 2;  // persistence state must also be identical
  c.epoch_threads = epoch_threads;
  return c;
}

/// Replays a fixed 10-interval mixed-attack scenario (floods, scans, benign
/// churn, on/off attacks) and returns every interval's full result.
std::vector<IntervalResult> replay(
    std::size_t epoch_threads, ForecastModel model = ForecastModel::kEwma) {
  SketchBank bank(bank_cfg());
  HifindDetector detector(det_cfg(epoch_threads, model));
  Pcg32 rng(7, 11);  // same stream for every replay
  std::vector<IntervalResult> results;
  const IPv4 victim(129, 105, 1, 1);
  const IPv4 victim2(129, 105, 2, 2);
  for (std::uint64_t interval = 0; interval < 10; ++interval) {
    // Benign floor: handshakes give victims SYN/ACK history.
    feed_completed(bank, IPv4(100, 1, 1, 1), victim, 80, 30);
    feed_completed(bank, IPv4(100, 1, 1, 2), victim2, 443, 30);
    feed_completed(bank, IPv4(100, 1, 1, 3), IPv4(129, 105, 1, 3), 22, 20);
    if (interval >= 2) {
      feed_flood(bank, victim, 80, 400, /*spoofed=*/true, rng);
    }
    if (interval >= 3 && interval <= 7) {
      feed_flood(bank, victim2, 443, 300, /*spoofed=*/false, rng,
                 IPv4(6, 6, 6, 6));
    }
    if (interval >= 4) {
      feed_hscan(bank, IPv4(7, 7, 7, 7), 445, 250);
      feed_vscan(bank, IPv4(8, 8, 8, 8), IPv4(129, 105, 9, 9), 250);
    }
    results.push_back(detector.process(bank, interval));
    bank.clear();
  }
  return results;
}

void expect_identical(const std::vector<IntervalResult>& a,
                      const std::vector<IntervalResult>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].raw, b[i].raw) << what << " raw, interval " << i;
    EXPECT_EQ(a[i].after_2d, b[i].after_2d)
        << what << " after_2d, interval " << i;
    EXPECT_EQ(a[i].final, b[i].final) << what << " final, interval " << i;
  }
}

/// Order-sensitive FNV-1a digest of (interval, type, key, magnitude bits)
/// over every interval's raw, after_2d and final lists.
std::uint64_t alert_digest(const std::vector<IntervalResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const IntervalResult& r : results) {
    for (const auto* list : {&r.raw, &r.after_2d, &r.final}) {
      mix(list->size());
      for (const Alert& a : *list) {
        mix(a.interval);
        mix(static_cast<std::uint64_t>(a.type));
        mix(a.key);
        mix(std::bit_cast<std::uint64_t>(a.magnitude));
      }
    }
  }
  return h;
}

TEST(EpochDeterminism, ScenarioProducesAlerts) {
  // Guard against vacuous equality: the scenario must actually alert.
  const auto serial = replay(/*epoch_threads=*/1);
  std::size_t raw = 0, fin = 0;
  for (const auto& r : serial) {
    raw += r.raw.size();
    fin += r.final.size();
  }
  EXPECT_GT(raw, 0u);
  EXPECT_GT(fin, 0u);
}

TEST(EpochDeterminism, ParallelEpochBitIdenticalToSerial) {
  const auto serial = replay(/*epoch_threads=*/1);
  expect_identical(serial, replay(2), "2 threads");
  expect_identical(serial, replay(4), "4 threads");
  expect_identical(serial, replay(8), "8 threads");
}

TEST(EpochDeterminism, SimdBackendDoesNotChangeAlerts) {
  // Scalar serial (the seed configuration) vs SIMD parallel: the strongest
  // cross-cutting equality the PR promises.
  simd::set_force_scalar(true);
  const auto scalar_serial = replay(/*epoch_threads=*/1);
  simd::set_force_scalar(false);
  const auto simd_parallel = replay(/*epoch_threads=*/4);
  expect_identical(scalar_serial, simd_parallel, "scalar/1t vs simd/4t");
}

TEST(EpochDeterminism, AutoThreadCountMatchesSerial) {
  const auto serial = replay(/*epoch_threads=*/1);
  expect_identical(serial, replay(/*epoch_threads=*/0), "auto threads");
}

TEST(EpochDeterminism, EveryForecastModelPinned) {
  // The moving average and Holt run end to end only here and in
  // bench/ablation_forecast. The digests pin each model's alerts, so a
  // refactor of the forecast state cannot drift them silently.
  const struct {
    ForecastModel model;
    std::uint64_t digest;
  } kCases[] = {{ForecastModel::kEwma, 0x88697dd2d3429725ULL},
                {ForecastModel::kMovingAverage, 0x0a158562acc4e1daULL},
                {ForecastModel::kHolt, 0x25a1335cd7013f4fULL}};
  for (const auto& c : kCases) {
    const auto serial = replay(/*epoch_threads=*/1, c.model);
    std::size_t fin = 0;
    for (const auto& r : serial) fin += r.final.size();
    EXPECT_GT(fin, 0u) << "model " << static_cast<int>(c.model);
    expect_identical(serial, replay(/*epoch_threads=*/4, c.model),
                     "4 threads");
    EXPECT_EQ(alert_digest(serial), c.digest)
        << "model " << static_cast<int>(c.model) << std::hex
        << " digest 0x" << alert_digest(serial);
  }
}

}  // namespace
}  // namespace hifind
