// Golden frames: the exact bytes a fixed, seeded, recorded bank serializes
// to. The round-trip suites cannot catch a change that reorders the counter
// arrays (or a stage's sums) consistently on both sides; a collector running
// newer code would then misread frames from routers running older code.
// These digests pin the frame layout itself. If one changes, the wire format
// changed: bump the magic instead of updating the digest.
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "detect/sketch_wire.hpp"

namespace hifind {
namespace {

/// FNV-1a, 64-bit: stable, dependency-free, good enough to pin bytes.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Small non-default shapes on every sketch, so the frame is a few hundred
/// KiB and every config field differs from its default.
SketchBankConfig golden_cfg(SketchBackendKind backend) {
  SketchBankConfig c;
  c.seed = 20240607;
  c.backend = backend;
  c.rs48 = {.key_bits = 48, .num_stages = 5, .bucket_bits = 6, .seed = 0};
  c.rs64 = {.key_bits = 64, .num_stages = 4, .bucket_bits = 8, .seed = 0};
  c.verification = {.num_stages = 4, .num_buckets = 1u << 9, .seed = 0};
  c.original = {.num_stages = 3, .num_buckets = 1u << 8, .seed = 0};
  c.twod = {.num_stages = 3, .x_buckets = 1u << 6, .y_buckets = 16, .seed = 0};
  c.ci48 = {.key_bits = 48, .num_stages = 2, .bucket_bits = 7, .seed = 0};
  c.ci64 = {.key_bits = 64, .num_stages = 3, .bucket_bits = 6, .seed = 0};
  return c;
}

/// A seeded op stream: SYNs and SYN/ACKs with unit and power-of-two shed
/// weights over a skewed key population, long enough to cross the 256-op
/// staging chunks several times.
std::vector<RecordOp> golden_ops() {
  Pcg32 rng(0x601d, 7);
  std::vector<RecordOp> ops;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t sip = rng.bounded(i % 3 == 0 ? 4 : 600);
    const std::uint64_t dip = rng.bounded(i % 5 == 0 ? 2 : 300);
    const std::uint64_t port = rng.bounded(i % 2 == 0 ? 3 : 1024);
    const bool syn = rng.bounded(4) != 0;
    const double weight = rng.bounded(8) == 0 ? 4.0 : 1.0;
    RecordOp op;
    op.k_sip_dport = ((0x0a000000 + sip) << 16) | port;
    op.k_dip_dport = ((0x81690000 + dip) << 16) | port;
    op.k_sip_dip = ((0x0a000000 + sip) << 32) | (0x81690000 + dip);
    op.delta = (syn ? 1.0 : -1.0) * weight;
    op.weight = weight;
    op.syn = syn;
    ops.push_back(op);
  }
  return ops;
}

// Recorded from the HFB5 writer (ten int32 grids); see the file comment.
constexpr std::size_t kGoldenReversibleSize = 67293;
constexpr std::uint64_t kGoldenReversibleDigest = 0x13bd4fac62e5bebaULL;
constexpr std::size_t kGoldenCompactSize = 210909;
constexpr std::uint64_t kGoldenCompactDigest = 0xbf4fb3cdfb898a53ULL;
constexpr std::size_t kGoldenDefaultSize = 14221533;
constexpr std::uint64_t kGoldenDefaultDigest = 0x3821123c551c08b6ULL;

std::vector<std::uint8_t> golden_frame(const SketchBankConfig& cfg) {
  SketchBank bank(cfg);
  const std::vector<RecordOp> ops = golden_ops();
  // Two intervals: the frame carries the second one only (clear() resets
  // every grid, the SYNACK sketch included).
  bank.record_ops(ops, SketchBank::kGroupAll);
  bank.clear();
  bank.record_ops(std::span<const RecordOp>(ops).first(1700),
                  SketchBank::kGroupAll);
  return serialize_frame(bank, 9, 31);
}

TEST(SketchWireGoldenTest, ReversibleFrameBytesArePinned) {
  const auto frame = golden_frame(golden_cfg(SketchBackendKind::kReversible));
  ASSERT_EQ(frame.size(), kGoldenReversibleSize);
  EXPECT_EQ(frame[3], '5');
  EXPECT_EQ(fnv1a64(frame), kGoldenReversibleDigest);
}

TEST(SketchWireGoldenTest, CompactFrameBytesArePinned) {
  const auto frame = golden_frame(golden_cfg(SketchBackendKind::kCompact));
  ASSERT_EQ(frame.size(), kGoldenCompactSize);
  EXPECT_EQ(frame[3], '5');
  EXPECT_EQ(fnv1a64(frame), kGoldenCompactDigest);
}

TEST(SketchWireGoldenTest, DefaultShapeFrameBytesArePinned) {
  // The paper shapes on the default backend.
  SketchBankConfig cfg;
  cfg.seed = 20240607;
  const auto frame = golden_frame(cfg);
  ASSERT_EQ(frame.size(), kGoldenDefaultSize);
  EXPECT_EQ(frame[3], '5');
  EXPECT_EQ(fnv1a64(frame), kGoldenDefaultDigest);
}

}  // namespace
}  // namespace hifind
