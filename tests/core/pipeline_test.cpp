#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "../testing/synthetic.hpp"

namespace hifind {
namespace {

using testing::syn_packet;
using testing::synack_packet;

PipelineConfig cfg() {
  PipelineConfig c;
  c.bank.seed = 42;
  c.bank.twod.x_buckets = 1u << 10;
  c.detector.interval_seconds = 60;
  c.detector.min_persist_intervals = 1;
  return c;
}

Timestamp minute(double m) {
  return static_cast<Timestamp>(m * 60.0 * kMicrosPerSecond);
}

/// Benign completed handshakes spread through interval `m`.
void baseline_minute(Pipeline& p, double m) {
  for (int i = 0; i < 50; ++i) {
    const IPv4 client{0x64000000u + static_cast<std::uint32_t>(i)};
    const IPv4 server(129, 105, 1, 1);
    const auto sport = static_cast<std::uint16_t>(20000 + i);
    const Timestamp ts = minute(m) + static_cast<Timestamp>(i) * 1000000;
    p.offer(syn_packet(ts, client, server, 443, sport));
    p.offer(synack_packet(ts + 1000, server, 443, client, sport));
  }
}

TEST(PipelineTest, IntervalBoundariesCloseAutomatically) {
  Pipeline p(cfg());
  int callbacks = 0;
  p.on_interval([&](const IntervalResult&) { ++callbacks; });
  baseline_minute(p, 0);
  baseline_minute(p, 1);
  baseline_minute(p, 2);
  EXPECT_EQ(callbacks, 2) << "two boundaries crossed";
  p.finish();
  EXPECT_EQ(callbacks, 3);
}

TEST(PipelineTest, CallbackRunsBeforeTheBankIsCleared) {
  // The result goes out before the housekeeping: inside on_interval the
  // bank still holds every op of the closed interval (300 here, so one
  // 256-op batch and a flushed remainder); once the offer that crossed the
  // boundary returns, the bank has been cleared.
  Pipeline p(cfg());
  std::vector<std::uint64_t> in_callback;
  p.on_interval([&](const IntervalResult&) {
    in_callback.push_back(p.bank().packets_recorded());
  });
  const IPv4 server(129, 105, 1, 1);
  const auto syn_at = [&](Timestamp ts, std::uint32_t i) {
    return syn_packet(ts, IPv4{0x64000000u + i}, server, 443,
                      static_cast<std::uint16_t>(20000 + i % 1000));
  };
  for (std::uint32_t i = 0; i < 300; ++i) {
    p.offer(syn_at(minute(0) + i * 1000, i));
  }
  p.offer(syn_at(minute(1), 0));  // crosses the boundary
  ASSERT_EQ(in_callback, std::vector<std::uint64_t>{300});
  EXPECT_EQ(p.bank().packets_recorded(), 0u);
  for (std::uint32_t i = 1; i < 30; ++i) {
    p.offer(syn_at(minute(1) + i * 1000, i));
  }
  p.finish();
  EXPECT_EQ(in_callback, (std::vector<std::uint64_t>{300, 30}));
  EXPECT_EQ(p.bank().packets_recorded(), 0u);
}

TEST(PipelineTest, QuietGapsStillRollIntervals) {
  Pipeline p(cfg());
  baseline_minute(p, 0);
  baseline_minute(p, 5);  // 4 empty intervals in between
  p.finish();
  EXPECT_EQ(p.results().size(), 6u);
}

TEST(PipelineTest, DetectsFloodInjectedMidStream) {
  Pipeline p(cfg());
  baseline_minute(p, 0);
  baseline_minute(p, 1);
  // Flood in minute 2.
  Pcg32 rng(3);
  baseline_minute(p, 2);
  for (int i = 0; i < 400; ++i) {
    p.offer(syn_packet(minute(2.2) + i, IPv4{rng.next()},
                       IPv4(129, 105, 1, 1), 443,
                       static_cast<std::uint16_t>(1024 + i)));
  }
  baseline_minute(p, 3);
  p.finish();

  ASSERT_EQ(p.results().size(), 4u);
  EXPECT_TRUE(p.results()[1].final.empty());
  EXPECT_GE(
      IntervalResult::count(p.results()[2].final, AttackType::kSynFlooding),
      1u);
}

TEST(PipelineTest, FinishIsIdempotentOnEmptyPipeline) {
  Pipeline p(cfg());
  EXPECT_FALSE(p.finish().has_value());
}

TEST(PipelineTest, RunConvenienceProcessesWholeTrace) {
  Trace t;
  for (int m = 0; m < 3; ++m) {
    for (int i = 0; i < 30; ++i) {
      const auto sport = static_cast<std::uint16_t>(20000 + i);
      t.push_back(syn_packet(minute(m) + i, IPv4(100, 1, 1, 1),
                             IPv4(129, 105, 1, 1), 443, sport));
      t.push_back(synack_packet(minute(m) + i + 1, IPv4(129, 105, 1, 1), 443,
                                IPv4(100, 1, 1, 1), sport));
    }
  }
  t.sort();
  Pipeline p(cfg());
  const auto results = p.run(t);
  EXPECT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.final.empty());
}

/// A seeded stream whose interval `k` carries exactly ops_per_interval[k]
/// recordable packets (SYN or SYN/ACK: handshakes, a spoofed flood and a
/// horizontal scan), each preceded at random by packets that record nothing
/// (a bare ACK or a UDP datagram). An entry of 0 leaves the minute silent.
Trace batching_stream(const std::vector<int>& ops_per_interval) {
  Pcg32 rng(20);
  Trace t;
  const IPv4 server(129, 105, 1, 1);
  for (std::size_t k = 0; k < ops_per_interval.size(); ++k) {
    const int ops = ops_per_interval[k];
    // A fresh victim and scanner each minute, so every interval's attacks
    // stand out from the forecast.
    const auto fresh = static_cast<std::uint8_t>(k + 1);
    const IPv4 victim(129, 105, 2, fresh);
    const IPv4 scanner(66, 6, 6, fresh);
    for (int j = 0; j < ops; ++j) {
      const Timestamp ts =
          minute(static_cast<double>(k)) + static_cast<Timestamp>(j) * 50000;
      while (rng.next() % 3 == 0) {
        PacketRecord noise = syn_packet(ts, IPv4{rng.next()}, server, 443);
        if (rng.next() % 2 == 0) {
          noise.flags = kAck;
        } else {
          noise.flags = 0;
          noise.proto = Protocol::kUdp;
        }
        t.push_back(noise);
      }
      const auto client = IPv4{0x64000000u + rng.next() % 64};
      const auto sport = static_cast<std::uint16_t>(20000 + rng.next() % 500);
      switch (rng.next() % 5) {
        case 0:
        case 1:
          t.push_back(syn_packet(ts, IPv4{rng.next()}, victim, 80,
                                 static_cast<std::uint16_t>(rng.next())));
          break;
        case 2:
          t.push_back(syn_packet(ts, scanner,
                                 IPv4{0x81690000u + rng.next() % 4096}, 22));
          break;
        case 3:
          t.push_back(syn_packet(ts, client, server, 443, sport));
          break;
        default:
          t.push_back(synack_packet(ts, server, 443, client, sport));
          break;
      }
    }
  }
  return t;
}

void expect_same_results(const std::vector<IntervalResult>& got,
                         const std::vector<IntervalResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].interval, want[i].interval) << i;
    EXPECT_EQ(got[i].raw, want[i].raw) << "interval " << i;
    EXPECT_EQ(got[i].after_2d, want[i].after_2d) << "interval " << i;
    EXPECT_EQ(got[i].final, want[i].final) << "interval " << i;
    EXPECT_EQ(got[i].epoch, want[i].epoch) << "interval " << i;
  }
}

TEST(PipelineTest, BatchedRecordingMatchesPerPacketRecording) {
  // Pipeline buffers 256 ops per record_ops call. Intervals end with 255,
  // 0 (exactly 256 recorded) and 1 (257) ops in the buffer, with and
  // without earlier full flushes, around a silent gap; finish() closes the
  // tail. Every result must equal the per-packet reference: record each
  // packet, process the bank at each boundary, then clear it.
  const std::vector<int> ops = {300, 255, 256, 257, 3 * 256 + 255,
                                0,   0,   0,   2 * 256 + 1, 700};
  const Trace trace = batching_stream(ops);
  const PipelineConfig c = cfg();

  SketchBank bank(c.bank);
  HifindDetector detector(c.detector);
  const IntervalClock clock(c.detector.interval_seconds);
  std::optional<std::uint64_t> current;
  std::vector<IntervalResult> want;
  for (const PacketRecord& p : trace.packets()) {
    const std::uint64_t interval = clock.interval_of(p.ts);
    if (!current) current = interval;
    while (*current < interval) {
      want.push_back(detector.process(bank, *current));
      bank.clear();
      ++*current;
    }
    bank.record(p);
  }
  want.push_back(detector.process(bank, *current));

  Pipeline pipeline(c);
  for (const PacketRecord& p : trace.packets()) pipeline.offer(p);
  ASSERT_TRUE(pipeline.finish().has_value());

  ASSERT_EQ(want.size(), ops.size());
  const auto alerting = std::count_if(
      want.begin(), want.end(),
      [](const IntervalResult& r) { return !r.raw.empty(); });
  EXPECT_GE(alerting, 6) << "the stream must give the counters weight";
  expect_same_results(pipeline.results(), want);
  // The lifetime SYN/ACK history outlives clear(): it must match as well.
  const auto got_history = pipeline.bank().synack_history().counters();
  const auto want_history = bank.synack_history().counters();
  EXPECT_TRUE(std::equal(got_history.begin(), got_history.end(),
                         want_history.begin(), want_history.end()));
}

}  // namespace
}  // namespace hifind
