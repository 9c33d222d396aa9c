// CollectorState machine: shipment statuses, bounded retry, straggler
// deadlines, dedupe, reorder re-filing, quarantine, coverage reporting.
#include "router/collector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "../testing/synthetic.hpp"
#include "detect/sketch_wire.hpp"
#include "router/faulty_channel.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;

SketchBankConfig bank_cfg() {
  SketchBankConfig c;
  c.seed = 17;
  c.rs48.bucket_bits = 6;
  c.rs48.num_stages = 2;
  c.rs64.bucket_bits = 8;
  c.rs64.num_stages = 2;
  c.verification.num_buckets = 1u << 8;
  c.verification.num_stages = 2;
  c.original.num_buckets = 1u << 8;
  c.original.num_stages = 2;
  c.twod.x_buckets = 1u << 6;
  c.twod.y_buckets = 8;
  c.twod.num_stages = 2;
  return c;
}

CollectorConfig coll_cfg(std::size_t routers, std::uint64_t deadline = 1) {
  CollectorConfig c;
  c.num_routers = routers;
  c.deadline_polls = deadline;
  c.fetch_attempts_per_poll = 2;
  c.quarantine_after = 3;
  return c;
}

/// Bank with distinct per-router content (so sums are distinguishable).
SketchBank router_bank(std::size_t router, std::uint64_t interval) {
  SketchBank b(bank_cfg());
  Pcg32 rng(1000 * interval + router);
  feed_completed(b, IPv4(10, 0, 0, static_cast<std::uint8_t>(router + 1)),
                 IPv4(129, 105, 1, 1), 443, 20 + static_cast<int>(router));
  feed_flood(b, IPv4(129, 105, 9, 9), 80, 50, true, rng);
  return b;
}

std::vector<std::uint8_t> frame_for(std::size_t router,
                                    std::uint64_t interval) {
  return serialize_frame(router_bank(router, interval),
                         static_cast<std::uint32_t>(router), interval);
}

bool same_counters(const SketchBank& a, const SketchBank& b) {
  return serialize_bank(a) == serialize_bank(b);
}

TEST(CollectorStateTest, CleanIntervalFinalizesImmediatelyWithFullCoverage) {
  FaultyChannel chan(3, 1);
  for (std::size_t r = 0; r < 3; ++r) chan.ship(r, 0, frame_for(r, 0));
  chan.advance_to(0);
  CollectorState coll(coll_cfg(3), bank_cfg(),
                      [&](std::size_t r, std::uint64_t iv) {
                        return chan.fetch(r, iv);
                      });
  const auto done = coll.poll(0);
  ASSERT_EQ(done.size(), 1u);
  const FinalizedInterval& f = done[0];
  EXPECT_EQ(f.interval, 0u);
  EXPECT_FALSE(f.coverage.degraded);
  EXPECT_DOUBLE_EQ(f.coverage.fraction, 1.0);
  EXPECT_EQ(f.coverage.routers_combined,
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(f.coverage.routers_missing.empty());
  ASSERT_EQ(f.banks.size(), 3u);

  // partial_sum is the clean COMBINE of the received banks.
  std::vector<const SketchBank*> terms;
  for (const auto& [r, b] : f.banks) terms.push_back(&b);
  EXPECT_TRUE(same_counters(f.partial_sum, SketchBank::combine(terms)));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(coll.status(r, 0), ShipmentStatus::kReceived);
  }
}

TEST(CollectorStateTest, StragglerInsideDeadlineStillFullCoverage) {
  FaultyChannel chan(2, 2);
  FaultPlan slow;
  slow.delay_intervals = 1;  // router 1's frames arrive one interval late
  chan.set_plan(1, slow);
  CollectorState coll(coll_cfg(2, /*deadline=*/2), bank_cfg(),
                      [&](std::size_t r, std::uint64_t iv) {
                        return chan.fetch(r, iv);
                      });

  chan.ship(0, 0, frame_for(0, 0));
  chan.ship(1, 0, frame_for(1, 0));
  chan.advance_to(0);
  EXPECT_TRUE(coll.poll(0).empty());  // waiting on the straggler
  EXPECT_EQ(coll.status(0, 0), ShipmentStatus::kReceived);
  EXPECT_EQ(coll.status(1, 0), ShipmentStatus::kLate);

  chan.ship(0, 1, frame_for(0, 1));
  chan.ship(1, 1, frame_for(1, 1));
  chan.advance_to(1);
  const auto done = coll.poll(1);  // straggler for 0 now fetchable
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].interval, 0u);
  EXPECT_FALSE(done[0].coverage.degraded);
  EXPECT_EQ(coll.status(1, 0), ShipmentStatus::kReceived);
  EXPECT_GT(coll.stats().fetch_retries, 0u);
}

TEST(CollectorStateTest, DeadlineExpiryFinalizesDegradedWithMissingList) {
  FaultyChannel chan(4, 3);
  chan.set_outage(2, 0, 0);  // router 2 dark for interval 0
  CollectorState coll(coll_cfg(4, /*deadline=*/1), bank_cfg(),
                      [&](std::size_t r, std::uint64_t iv) {
                        return chan.fetch(r, iv);
                      });
  for (std::size_t r = 0; r < 4; ++r) chan.ship(r, 0, frame_for(r, 0));
  chan.advance_to(0);
  EXPECT_TRUE(coll.poll(0).empty());

  for (std::size_t r = 0; r < 4; ++r) chan.ship(r, 1, frame_for(r, 1));
  chan.advance_to(1);
  const auto done = coll.poll(1);  // deadline for 0 expired; 1 is complete
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].interval, 0u);
  EXPECT_TRUE(done[0].coverage.degraded);
  EXPECT_EQ(done[0].coverage.routers_missing,
            (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(done[0].coverage.routers_combined,
            (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(done[0].coverage.fraction, 0.75);
  EXPECT_EQ(coll.status(2, 0), ShipmentStatus::kMissing);

  EXPECT_EQ(done[1].interval, 1u);
  EXPECT_FALSE(done[1].coverage.degraded);
  EXPECT_EQ(coll.stats().intervals_degraded, 1u);
}

TEST(CollectorStateTest, CompleteIntervalWaitsBehindStraggler) {
  // Detection is order-sensitive (forecasters): interval 1, though complete,
  // must not finalize before interval 0 resolves.
  FaultyChannel chan(2, 5);
  chan.set_outage(1, 0, 0);
  CollectorState coll(coll_cfg(2, /*deadline=*/2), bank_cfg(),
                      [&](std::size_t r, std::uint64_t iv) {
                        return chan.fetch(r, iv);
                      });
  for (std::uint64_t iv = 0; iv < 2; ++iv) {
    for (std::size_t r = 0; r < 2; ++r) chan.ship(r, iv, frame_for(r, iv));
  }
  chan.advance_to(0);
  EXPECT_TRUE(coll.poll(0).empty());
  chan.advance_to(1);
  EXPECT_TRUE(coll.poll(1).empty()) << "interval 1 must wait behind 0";
  chan.advance_to(2);
  chan.ship(0, 2, frame_for(0, 2));
  chan.ship(1, 2, frame_for(1, 2));
  const auto done = coll.poll(2);  // 0 expires; 1 and 2 complete
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].interval, 0u);
  EXPECT_TRUE(done[0].coverage.degraded);
  EXPECT_EQ(done[1].interval, 1u);
  EXPECT_FALSE(done[1].coverage.degraded);
  EXPECT_EQ(done[2].interval, 2u);
}

TEST(CollectorStateTest, CorruptFramesRetryThenQuarantineAfterK) {
  // Router 1 ships garbage every time; K=3 consecutive bad frames must
  // quarantine it, and coverage must then count it missing.
  std::uint64_t bad_frames_served = 0;
  CollectorState coll(
      coll_cfg(2), bank_cfg(),
      [&](std::size_t r,
          std::uint64_t iv) -> std::optional<std::vector<std::uint8_t>> {
        if (r == 1) {
          ++bad_frames_served;
          return std::vector<std::uint8_t>{'H', 'F', 'B', '4', 0, 1, 2, 3};
        }
        return serialize_frame(router_bank(r, iv),
                               static_cast<std::uint32_t>(r), iv);
      });

  const auto done0 = coll.poll(0);
  // 2 attempts/poll and K=3: quarantine lands mid-poll-1; interval 0
  // (deadline 1) then finalizes because every router is received or
  // quarantined.
  EXPECT_TRUE(done0.empty());
  EXPECT_FALSE(coll.quarantined(1));
  const auto done1 = coll.poll(1);
  EXPECT_TRUE(coll.quarantined(1));
  EXPECT_EQ(coll.stats().routers_quarantined, 1u);
  EXPECT_EQ(bad_frames_served, 3u) << "no fetches after quarantine";
  ASSERT_EQ(done1.size(), 2u);
  for (const auto& f : done1) {
    EXPECT_TRUE(f.coverage.degraded);
    EXPECT_EQ(f.coverage.routers_missing, (std::vector<std::uint32_t>{1}));
  }
  EXPECT_EQ(coll.status(1, 0), ShipmentStatus::kQuarantined);
  EXPECT_EQ(coll.stats().frames_corrupt, 3u);

  // Later intervals skip the quarantined router entirely.
  const auto done2 = coll.poll(2);
  ASSERT_EQ(done2.size(), 1u);
  EXPECT_EQ(done2[0].coverage.routers_combined,
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(bad_frames_served, 3u);
}

TEST(CollectorStateTest, Hfb2AndHfb3FramesCountTowardQuarantine) {
  // A router still shipping the retired f64 frame versions sends intact,
  // checksummed banks under the HFB2/HFB3 magic. Each is a kBadMagic
  // rejection, and K=3 of them quarantine the router like any corrupt frame.
  std::uint64_t old_frames_served = 0;
  CollectorState coll(
      coll_cfg(2), bank_cfg(),
      [&](std::size_t r,
          std::uint64_t iv) -> std::optional<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> frame = frame_for(r, iv);
        if (r == 1) {
          frame[3] = old_frames_served++ % 2 == 0 ? '2' : '3';
          try {
            deserialize_frame(frame);
            ADD_FAILURE() << "retired frame decoded";
          } catch (const WireError& e) {
            EXPECT_EQ(e.fault(), WireFault::kBadMagic);
          }
        }
        return frame;
      });
  EXPECT_TRUE(coll.poll(0).empty());
  EXPECT_FALSE(coll.quarantined(1));
  const auto done1 = coll.poll(1);
  EXPECT_TRUE(coll.quarantined(1));
  EXPECT_EQ(coll.stats().routers_quarantined, 1u);
  EXPECT_EQ(coll.stats().frames_corrupt, 3u);
  EXPECT_EQ(old_frames_served, 3u) << "no fetches after quarantine";
  ASSERT_EQ(done1.size(), 2u);
  for (const auto& f : done1) {
    EXPECT_EQ(f.coverage.routers_missing, (std::vector<std::uint32_t>{1}));
  }
}

TEST(CollectorStateTest, Hfb4FramesCountTowardQuarantine) {
  // A router still shipping HFB4 (nine int32 grids and its cumulative f64
  // SYN/ACK history) sends intact, checksummed banks under a retired magic:
  // kBadMagic each time, and K=3 of them quarantine the router.
  std::uint64_t old_frames_served = 0;
  CollectorState coll(
      coll_cfg(2), bank_cfg(),
      [&](std::size_t r,
          std::uint64_t iv) -> std::optional<std::vector<std::uint8_t>> {
        std::vector<std::uint8_t> frame = frame_for(r, iv);
        if (r == 1) {
          ++old_frames_served;
          frame[3] = '4';
          try {
            deserialize_frame(frame);
            ADD_FAILURE() << "HFB4 frame decoded";
          } catch (const WireError& e) {
            EXPECT_EQ(e.fault(), WireFault::kBadMagic);
          }
        }
        return frame;
      });
  EXPECT_TRUE(coll.poll(0).empty());
  EXPECT_FALSE(coll.quarantined(1));
  const auto done1 = coll.poll(1);
  EXPECT_TRUE(coll.quarantined(1));
  EXPECT_EQ(coll.stats().frames_corrupt, 3u);
  EXPECT_EQ(old_frames_served, 3u) << "no fetches after quarantine";
  ASSERT_EQ(done1.size(), 2u);
  for (const auto& f : done1) {
    EXPECT_EQ(f.coverage.routers_combined, (std::vector<std::uint32_t>{0}));
  }
}

TEST(CollectorStateTest, ReplayedFrameIsDeduplicatedNotDoubleCounted) {
  // The channel replays router 0's interval-0 frame (already finalized) for
  // every interval-1 ask in poll(1); the stale frame must not land anywhere
  // and the real frame — arriving next poll — must be counted exactly once.
  int iv1_asks = 0;
  CollectorState coll(
      coll_cfg(1, /*deadline=*/2), bank_cfg(),
      [&](std::size_t, std::uint64_t iv)
          -> std::optional<std::vector<std::uint8_t>> {
        if (iv == 1 && ++iv1_asks <= 2) return frame_for(0, 0);  // replay
        return frame_for(0, iv);
      });
  const auto done0 = coll.poll(0);
  ASSERT_EQ(done0.size(), 1u);
  // Both poll(1) attempts replay the finalized interval-0 frame.
  EXPECT_TRUE(coll.poll(1).empty());
  EXPECT_EQ(coll.stats().frames_stale, 2u);
  // Next poll the real frame arrives; intervals 1 and 2 finalize clean.
  const auto done = coll.poll(2);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].interval, 1u);
  EXPECT_FALSE(done[0].coverage.degraded);
  EXPECT_TRUE(same_counters(done[0].partial_sum, router_bank(0, 1)));
}

TEST(CollectorStateTest, ReorderedFrameIsFiledToItsOwnInterval) {
  // While interval 0 is a straggler, the ask for it is answered with
  // interval 1's frame; the collector files that under pending interval 1
  // (frames_reordered) and still collects interval 0 on the retry.
  int calls = 0;
  CollectorState coll(
      coll_cfg(1, /*deadline=*/2), bank_cfg(),
      [&](std::size_t, std::uint64_t iv)
          -> std::optional<std::vector<std::uint8_t>> {
        ++calls;
        if (calls <= 2) return std::nullopt;   // poll(0): interval 0 misses
        if (calls == 3) return frame_for(0, 1);  // asked 0, answered 1
        return frame_for(0, iv);
      });
  EXPECT_TRUE(coll.poll(0).empty());
  EXPECT_EQ(coll.status(0, 0), ShipmentStatus::kLate);
  // poll(1): attempt 1 for interval 0 delivers interval 1's frame (filed
  // there), attempt 2 delivers the real interval-0 frame; both finalize.
  const auto done = coll.poll(1);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].interval, 0u);
  EXPECT_EQ(done[1].interval, 1u);
  EXPECT_FALSE(done[0].coverage.degraded);
  EXPECT_FALSE(done[1].coverage.degraded);
  EXPECT_EQ(coll.stats().frames_reordered, 1u);
  EXPECT_TRUE(same_counters(done[1].partial_sum, router_bank(0, 1)));
}

TEST(CollectorStateTest, ZeroCoverageIntervalReportsFractionZero) {
  CollectorState coll(coll_cfg(2, /*deadline=*/0), bank_cfg(),
                      [](std::size_t, std::uint64_t)
                          -> std::optional<std::vector<std::uint8_t>> {
                        return std::nullopt;
                      });
  const auto done = coll.poll(5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].interval, 5u);
  EXPECT_TRUE(done[0].coverage.degraded);
  EXPECT_DOUBLE_EQ(done[0].coverage.fraction, 0.0);
  EXPECT_EQ(done[0].coverage.routers_missing.size(), 2u);
  EXPECT_TRUE(done[0].banks.empty());
  // The partial sum is a well-shaped zero bank, not a crash.
  EXPECT_EQ(done[0].partial_sum.packets_recorded(), 0u);
}

TEST(CollectorStateTest, MisaddressedFrameCountsTowardQuarantine) {
  // Frames whose header names the wrong router are rejected even though
  // they are otherwise pristine (cross-wired collection plumbing).
  CollectorState coll(
      coll_cfg(2), bank_cfg(),
      [&](std::size_t r,
          std::uint64_t iv) -> std::optional<std::vector<std::uint8_t>> {
        // Router 1 always ships frames claiming to be router 0.
        return serialize_frame(router_bank(r, iv), 0, iv);
      });
  coll.poll(0);
  coll.poll(1);
  EXPECT_GT(coll.stats().frames_mismatched, 0u);
  EXPECT_TRUE(coll.quarantined(1));
  EXPECT_FALSE(coll.quarantined(0));
}

TEST(CollectorStateTest, Hfb1FrameCountsTowardQuarantine) {
  // A pre-HFB2 frame ("HFB1" magic + bank body, no header, no CRC) of a
  // well-shaped bank is a bad frame like any other: it cannot be bound to
  // its router and interval, so it never reaches COMBINE.
  CollectorState coll(
      coll_cfg(2), bank_cfg(),
      [&](std::size_t r,
          std::uint64_t iv) -> std::optional<std::vector<std::uint8_t>> {
        auto frame = frame_for(r, iv);
        if (r == 1) {
          constexpr std::size_t kV2HeaderBytes = 4 + 4 + 8 + 8 + 4;
          std::vector<std::uint8_t> v1 = {'H', 'F', 'B', '1'};
          v1.insert(v1.end(), frame.begin() + kV2HeaderBytes, frame.end());
          return v1;
        }
        return frame;
      });
  coll.poll(0);
  const auto done = coll.poll(1);
  EXPECT_EQ(coll.stats().frames_corrupt, 3u);
  EXPECT_TRUE(coll.quarantined(1));
  EXPECT_FALSE(coll.quarantined(0));
  ASSERT_FALSE(done.empty());
  EXPECT_EQ(done[0].coverage.routers_missing, (std::vector<std::uint32_t>{1}));
}

TEST(CollectorStateTest, WrongShapeBankRejected) {
  SketchBankConfig other = bank_cfg();
  other.seed = 12345;  // different seed => not combinable
  CollectorState coll(
      coll_cfg(1), bank_cfg(),
      [&](std::size_t, std::uint64_t iv)
          -> std::optional<std::vector<std::uint8_t>> {
        return serialize_frame(SketchBank(other), 0, iv);
      });
  const auto done = coll.poll(0);
  EXPECT_GT(coll.stats().frames_wrong_shape, 0u);
  EXPECT_TRUE(done.empty() || done[0].coverage.degraded);
}

TEST(ResilientAggregatorTest, FullCoverageMatchesDirectDetection) {
  // With every frame arriving clean, the resilient path must be bit-for-bit
  // the plain COMBINE + detect.
  HifindDetectorConfig det;
  det.min_persist_intervals = 1;
  FaultyChannel chan(3, 7);
  ResilientAggregator agg(coll_cfg(3), bank_cfg(), det,
                          [&](std::size_t r, std::uint64_t iv) {
                            return chan.fetch(r, iv);
                          });
  HifindDetector ref(det);

  std::vector<IntervalResult> got;
  for (std::uint64_t iv = 0; iv < 3; ++iv) {
    std::vector<const SketchBank*> terms;
    std::vector<SketchBank> banks;
    banks.reserve(3);
    for (std::size_t r = 0; r < 3; ++r) {
      banks.push_back(router_bank(r, iv));
      if (iv == 1) {
        // Interval 1 carries an extra flood so there is something to detect.
        Pcg32 rng(99 + r);
        feed_flood(banks.back(), IPv4(129, 105, 9, 9), 80, 300, true, rng);
      }
      chan.ship(r, iv,
                serialize_frame(banks.back(),
                                static_cast<std::uint32_t>(r), iv));
    }
    for (const auto& b : banks) terms.push_back(&b);
    const IntervalResult expect =
        ref.process(SketchBank::combine(terms), iv);
    chan.advance_to(iv);
    auto out = agg.end_interval(iv);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].coverage.degraded);
    ASSERT_EQ(out[0].final.size(), expect.final.size());
    for (std::size_t i = 0; i < expect.final.size(); ++i) {
      EXPECT_EQ(out[0].final[i].key, expect.final[i].key);
      EXPECT_EQ(out[0].final[i].type, expect.final[i].type);
      EXPECT_DOUBLE_EQ(out[0].final[i].magnitude, expect.final[i].magnitude);
    }
    got.push_back(std::move(out[0]));
  }
  // The flood interval actually produced alerts (the comparison is not
  // vacuous).
  EXPECT_GE(got[1].final.size(), 1u);
}

}  // namespace
}  // namespace hifind
