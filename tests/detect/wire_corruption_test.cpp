// Table-driven corruption sweep over the bank wire format: flip every byte
// of a small serialized bank, one at a time, and assert deserialize_bank
// either throws WireError or yields a bank byte-equal to the original —
// never crashes, never silently hands back different counters that would
// mis-combine at the central site.
//
// The CRC-32C makes the contract strict: any payload flip must be
// rejected; only flips confined to the non-checksummed header provenance
// fields (router id, interval) may decode, and those leave the bank itself
// untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "detect/sketch_wire.hpp"

namespace hifind {
namespace {

/// Tiny bank so the sweep (bytes x flips) stays fast: ~8 KB serialized.
SketchBankConfig tiny_cfg() {
  SketchBankConfig c;
  c.seed = 99;
  c.rs48.num_stages = 2;
  c.rs48.bucket_bits = 6;
  c.rs64.num_stages = 2;
  c.rs64.bucket_bits = 8;
  c.verification.num_stages = 2;
  c.verification.num_buckets = 16;
  c.original.num_stages = 2;
  c.original.num_buckets = 16;
  c.twod.num_stages = 1;
  c.twod.x_buckets = 16;
  c.twod.y_buckets = 4;
  return c;
}

SketchBank populated_bank() {
  SketchBank bank(tiny_cfg());
  PacketRecord p;
  p.sip = IPv4(10, 0, 0, 1);
  p.dip = IPv4(129, 105, 1, 1);
  p.sport = 12345;
  p.dport = 443;
  p.flags = kSyn;
  for (int i = 0; i < 200; ++i) {
    p.sip = IPv4{0x0a000000u + static_cast<std::uint32_t>(i)};
    bank.record(p);
  }
  return bank;
}

bool banks_byte_equal(const SketchBank& a, const SketchBank& b) {
  // The serialized frame is the complete observable state (config, every
  // counter, packets_recorded) behind a fixed header, so frame equality ==
  // bank equality.
  return serialize_bank(a) == serialize_bank(b);
}

TEST(WireCorruptionTest, EveryHfb2ByteFlipRejectedOrHarmless) {
  const SketchBank bank = populated_bank();
  const auto clean = serialize_frame(bank, /*router_id=*/3, /*interval=*/7);
  ASSERT_LT(clean.size(), 64u * 1024) << "sweep config grew too big";

  std::size_t rejected = 0, decoded_harmless = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto corrupt = clean;
    corrupt[i] ^= 0x5a;
    try {
      const SketchBank back = deserialize_bank(corrupt);
      // Decoding succeeded: only header provenance flips (router id,
      // interval — bytes 4..15) can get here, and the bank must be intact.
      EXPECT_GE(i, 4u) << "magic flip decoded";
      EXPECT_LT(i, 16u) << "checksummed byte " << i << " flip decoded";
      EXPECT_TRUE(banks_byte_equal(back, bank))
          << "byte " << i << ": decoded bank differs (silent mis-combine)";
      ++decoded_harmless;
    } catch (const WireError&) {
      ++rejected;  // typed rejection is the expected outcome
    }
    // Anything else (std::bad_alloc, segfault, untyped error) fails the
    // test by escaping the catch.
  }
  // Exactly the 12 provenance-header bytes may decode; everything else —
  // magic, length, CRC, payload — must be rejected.
  EXPECT_EQ(decoded_harmless, 12u);
  EXPECT_EQ(rejected, clean.size() - 12u);
}

TEST(WireCorruptionTest, TruncationAtEveryLengthRejected) {
  const SketchBank bank = populated_bank();
  const auto clean = serialize_frame(bank, 1, 1);
  // Every proper prefix must be rejected (step 7 keeps the sweep fast while
  // still hitting every header byte and every field-boundary class).
  for (std::size_t len = 0; len < clean.size();
       len += (len < 32 ? 1 : 7)) {
    const std::vector<std::uint8_t> prefix(clean.begin(),
                                           clean.begin() + len);
    EXPECT_THROW(deserialize_bank(prefix), WireError) << "length " << len;
  }
}

/// Little-endian bytes of a double, as the frame stores it.
std::array<std::uint8_t, 8> f64_bytes(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::array<std::uint8_t, 8> out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return out;
}

// Interval counters are int32 shipped as f64. A frame whose interval counter
// is not an integer in int32 range — fractional, past either end, NaN,
// infinite — is rejected as a bad payload even with a valid checksum; the
// int32 extremes still decode.
TEST(WireCorruptionTest, NonInt32IntervalCounterIsBadPayload) {
  const SketchBank bank = populated_bank();
  const auto clean = serialize_frame(bank, 1, 1);
  constexpr std::size_t kHeaderBytes = 28;  // magic..crc
  constexpr std::size_t kCrcOffset = 24;
  // The 200 SYNs share one {DIP,Dport} key: the first f64 200.0 in the
  // payload is that key's counter in RS({DIP,Dport}), an interval grid.
  const auto hit = f64_bytes(200.0);
  const auto at = std::search(clean.begin() + kHeaderBytes, clean.end(),
                              hit.begin(), hit.end());
  ASSERT_NE(at, clean.end());
  const auto pos = static_cast<std::size_t>(at - clean.begin());
  const auto with_counter = [&](double v) {
    auto frame = clean;
    const auto b = f64_bytes(v);
    std::copy(b.begin(), b.end(), frame.begin() + static_cast<long>(pos));
    const std::uint32_t crc = crc32c(std::span<const std::uint8_t>(
        frame.data() + kHeaderBytes, frame.size() - kHeaderBytes));
    for (std::size_t i = 0; i < 4; ++i) {
      frame[kCrcOffset + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return frame;
  };
  for (const double bad : {200.5, -0.25, 2147483648.0, -2147483649.0,
                           1e300, std::nan(""), std::numeric_limits<double>::infinity()}) {
    try {
      deserialize_bank(with_counter(bad));
      ADD_FAILURE() << "counter " << bad << " decoded";
    } catch (const WireError& e) {
      EXPECT_EQ(e.fault(), WireFault::kBadPayload) << bad;
    }
  }
  for (const double ok : {2147483647.0, -2147483648.0}) {
    EXPECT_NO_THROW(deserialize_bank(with_counter(ok))) << ok;
  }
}

}  // namespace
}  // namespace hifind
