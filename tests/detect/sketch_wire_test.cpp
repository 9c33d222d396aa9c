#include "detect/sketch_wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "../testing/synthetic.hpp"
#include "common/byte_io.hpp"
#include "common/hash.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;

SketchBankConfig small_cfg() {
  SketchBankConfig c;
  c.seed = 77;
  c.rs48.bucket_bits = 12;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

TEST(SketchWireTest, RoundTripPreservesEveryCounter) {
  SketchBank bank(small_cfg());
  Pcg32 rng(3);
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 50);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 200, true, rng);

  const auto bytes = serialize_frame(bank, 0, 0);
  const SketchBank back = deserialize_frame(bytes).bank;

  ASSERT_TRUE(back.combinable_with(bank));
  EXPECT_EQ(back.packets_recorded(), bank.packets_recorded());
  const auto a = bank.rs_dip_dport().grid().counters();
  const auto b = back.rs_dip_dport().grid().counters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  // Estimates — which also exercise the recomputed stage sums — agree.
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_DOUBLE_EQ(back.rs_dip_dport().estimate(key),
                   bank.rs_dip_dport().estimate(key));
  EXPECT_DOUBLE_EQ(back.synack_dip_dport().estimate(
                       pack_ip_port(IPv4(129, 105, 1, 1), 443)),
                   bank.synack_dip_dport().estimate(
                       pack_ip_port(IPv4(129, 105, 1, 1), 443)));
}

TEST(SketchWireTest, DeserializedBankCombinesWithLiveBank) {
  // The point of the wire format: a shipped bank must be COMBINE-compatible
  // with banks built locally from the same config.
  SketchBank remote(small_cfg()), local(small_cfg());
  Pcg32 rng(5);
  feed_flood(remote, IPv4(129, 105, 9, 9), 80, 100, true, rng);
  feed_flood(local, IPv4(129, 105, 9, 9), 80, 150, true, rng);

  SketchBank shipped = deserialize_frame(serialize_frame(remote, 0, 0)).bank;
  const std::vector<const SketchBank*> terms{&shipped, &local};
  shipped.merge_shards(terms);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_NEAR(shipped.rs_dip_dport().estimate(key), 250.0, 15.0);
}

TEST(SketchWireTest, RejectsCorruptedInput) {
  SketchBank bank(small_cfg());
  auto bytes = serialize_frame(bank, 0, 0);
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW(deserialize_frame(bad), std::runtime_error);
  // Truncated body.
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_frame(bytes), std::runtime_error);
}

// --- The HFB5 frame (checksummed; HFB1 to HFB4 rejected) -----------------

std::vector<std::int32_t> counters_of(const SketchBank& b) {
  const auto span = b.rs_dip_dport().grid().counters();
  return {span.begin(), span.end()};
}

/// A pre-HFB2 frame, hand-built: the "HFB1" magic directly followed by the
/// bank body (config | counter arrays | packets_recorded), with no header
/// and no checksum.
std::vector<std::uint8_t> hfb1_frame(const SketchBank& bank) {
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;
  const auto v5 = serialize_frame(bank, 0, 0);
  std::vector<std::uint8_t> v1 = {'H', 'F', 'B', '1'};
  v1.insert(v1.end(), v5.begin() + kHeaderBytes, v5.end());
  return v1;
}

TEST(SketchWireTest, Hfb1MagicRejectedAsBadMagic) {
  // HFB1 carries no router/interval binding and no CRC, so a flipped
  // counter would decode into a different bank and reach COMBINE. It is
  // rejected like any other unknown magic.
  SketchBank bank(small_cfg());
  Pcg32 rng(9);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);
  try {
    deserialize_frame(hfb1_frame(bank));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.fault(), WireFault::kBadMagic) << e.what();
  }
}

// HFB2 and HFB3 shipped every counter widened to f64 (HFB3 adding the
// backend tag). A frame under either magic — here an otherwise intact HFB5
// frame relabelled, CRC still valid — is rejected before its body is read.
TEST(SketchWireTest, Hfb2AndHfb3MagicRejectedAsBadMagic) {
  SketchBank bank(small_cfg());
  Pcg32 rng(11);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);
  for (const std::uint8_t version : {'2', '3'}) {
    auto frame = serialize_frame(bank, 1, 1);
    frame[3] = version;
    try {
      deserialize_frame(frame);
      ADD_FAILURE() << "HFB" << version << " decoded";
    } catch (const WireError& e) {
      EXPECT_EQ(e.fault(), WireFault::kBadMagic) << e.what();
    }
  }
}

// HFB4 shipped the router's cumulative SYN/ACK history as f64 after nine
// int32 grids; that history is now the central detector's. A relabelled
// HFB5 frame, CRC still valid, is rejected before its body is read.
TEST(SketchWireTest, Hfb4MagicRejectedAsBadMagic) {
  SketchBank bank(small_cfg());
  Pcg32 rng(12);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);
  auto frame = serialize_frame(bank, 1, 1);
  ASSERT_EQ(frame[3], '5');
  frame[3] = '4';
  try {
    deserialize_frame(frame);
    FAIL() << "HFB4 decoded";
  } catch (const WireError& e) {
    EXPECT_EQ(e.fault(), WireFault::kBadMagic) << e.what();
  }
}

TEST(SketchWireTest, Hfb2RoundTripsWithHeader) {
  // Named for the header HFB2 introduced; the frame is now HFB5.
  SketchBank bank(small_cfg());
  Pcg32 rng(10);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);

  const auto v5 = serialize_frame(bank, /*router_id=*/6, /*interval=*/41);
  ASSERT_EQ(v5[3], '5');
  const BankFrame frame = deserialize_frame(v5);
  EXPECT_EQ(frame.router_id, 6u);
  EXPECT_EQ(frame.interval, 41u);
  EXPECT_EQ(frame.bank.packets_recorded(), bank.packets_recorded());
  EXPECT_EQ(counters_of(frame.bank), counters_of(bank));
}

TEST(SketchWireTest, TypedFaultsNameTheRejection) {
  SketchBank bank(small_cfg());
  const auto bytes = serialize_frame(bank, 1, 2);

  auto expect_fault = [](const std::vector<std::uint8_t>& frame,
                         WireFault want) {
    try {
      deserialize_frame(frame);
      FAIL() << "expected WireError " << wire_fault_name(want);
    } catch (const WireError& e) {
      EXPECT_EQ(e.fault(), want) << e.what();
    }
  };

  auto bad = bytes;
  bad[0] ^= 0xff;
  expect_fault(bad, WireFault::kBadMagic);

  bad = bytes;
  bad.resize(10);  // inside the header
  expect_fault(bad, WireFault::kTruncated);

  bad = bytes;
  bad.resize(bytes.size() - 5);  // payload shorter than declared
  expect_fault(bad, WireFault::kTruncated);

  bad = bytes;
  bad.push_back(0);  // payload longer than declared
  expect_fault(bad, WireFault::kBadLength);

  bad = bytes;
  bad.back() ^= 0x40;  // flip payload content
  expect_fault(bad, WireFault::kChecksumMismatch);

  bad = bytes;
  bad[24] ^= 0x01;  // flip the stored CRC field itself (header offset 24)
  expect_fault(bad, WireFault::kChecksumMismatch);
}

TEST(SketchWireTest, InvalidShapeOfUnusedBackendIsBadPayload) {
  // A reversible bank's frame whose unused ci48 shape names a key width no
  // compact sketch accepts: the counter footprint still matches (it follows
  // the selected backend), so only shape validation can reject it.
  SketchBankConfig cfg = small_cfg();
  cfg.backend = SketchBackendKind::kReversible;
  auto frame = serialize_frame(SketchBank(cfg), 1, 2);
  constexpr std::size_t kHeaderBytes = 28;  // magic .. crc
  constexpr std::size_t kCrcAt = 24;        // u32, header offset
  constexpr std::size_t kCi48KeyBitsAt = 85;  // u8, payload offset
  ASSERT_EQ(frame[kHeaderBytes + kCi48KeyBitsAt], 48);
  frame[kHeaderBytes + kCi48KeyBitsAt] = 255;
  const std::uint32_t crc =
      crc32c(std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[kCrcAt + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    deserialize_frame(frame);
    FAIL() << "a frame with ci48.key_bits = 255 decoded";
  } catch (const WireError& e) {
    EXPECT_EQ(e.fault(), WireFault::kBadPayload) << e.what();
  }
}

TEST(SketchWireTest, UnstagedShapeIsBadPayload) {
  // A resealed frame whose verification sketches declare 1000 buckets and
  // carry counter arrays of that size: length prefixes, footprint and CRC
  // are all consistent, but no k-ary sketch's hash table serves a bucket
  // count that is not a power of two, so only shape validation rejects it.
  const auto good = serialize_frame(SketchBank(small_cfg()), 1, 2);
  constexpr std::size_t kHeaderBytes = 28;      // magic .. crc
  constexpr std::size_t kConfigBytes = 105;     // payload offset of grid 0
  constexpr std::size_t kVerifBucketsAt = 36;   // u64, payload offset
  constexpr std::size_t kVerifGrids[] = {3, 4, 5, 9};  // + the SYN/ACK one
  const auto payload = std::span<const std::uint8_t>(good).subspan(kHeaderBytes);

  ByteWriter body;
  ByteReader config(payload.first(kConfigBytes));
  for (std::size_t at = 0; at < kConfigBytes;) {
    if (at == kVerifBucketsAt) {
      ASSERT_EQ(config.u64(), small_cfg().verification.num_buckets);
      body.u64(1000);
      at += 8;
    } else {
      body.u8(config.u8());
      ++at;
    }
  }
  ByteReader grids(payload.subspan(kConfigBytes));
  const std::size_t stages = small_cfg().verification.num_stages;
  for (std::size_t g = 0; g < SketchBank::kNumIntervalGrids; ++g) {
    const std::vector<std::int32_t> counters = grids.i32_vector();
    if (std::find(std::begin(kVerifGrids), std::end(kVerifGrids), g) !=
        std::end(kVerifGrids)) {
      body.i32_span(std::vector<std::int32_t>(stages * 1000, 0));
    } else {
      body.i32_span(counters);
    }
  }
  body.u64(grids.u64());  // packets_recorded
  ASSERT_TRUE(grids.exhausted());

  ByteWriter frame;
  frame.u32(0x35424648);  // "HFB5"
  frame.u32(1);
  frame.u64(2);
  frame.u64(body.bytes().size());
  frame.u32(crc32c(body.bytes()));
  std::vector<std::uint8_t> bytes = frame.take();
  bytes.insert(bytes.end(), body.bytes().begin(), body.bytes().end());
  try {
    deserialize_frame(bytes);
    FAIL() << "a frame with 1000-bucket verification sketches decoded";
  } catch (const WireError& e) {
    EXPECT_EQ(e.fault(), WireFault::kBadPayload) << e.what();
  }
}

TEST(SketchWireTest, WireSizeMatchesCounterFootprint) {
  // Counters ship as stored, 4 bytes each, so a frame is the bank's memory
  // plus a small header, config block and length prefixes — at the default
  // paper shapes and a small one.
  for (const SketchBankConfig& cfg : {SketchBankConfig{}, small_cfg()}) {
    const SketchBank bank(cfg);
    const auto bytes = serialize_frame(bank, 0, 0);
    EXPECT_GT(bytes.size(), bank.memory_bytes());
    EXPECT_LT(bytes.size(), bank.memory_bytes() + 4096);
    EXPECT_EQ(bytes.size(), frame_bytes(cfg));
    EXPECT_EQ(bytes.size(), bank.memory_bytes() + 221);
  }
}

}  // namespace
}  // namespace hifind
