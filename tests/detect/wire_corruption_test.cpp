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

#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
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
  return serialize_frame(a, 0, 0) == serialize_frame(b, 0, 0);
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
      const SketchBank back = deserialize_frame(corrupt).bank;
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
    EXPECT_THROW(deserialize_frame(prefix), WireError) << "length " << len;
  }
}

// --- Structure-aware fuzzing ----------------------------------------------
//
// The byte-flip sweep above mostly exercises the CRC: a flipped payload byte
// never reaches the body parser. These cases mutate the fields the parser
// trusts — shape fields, the backend tag, the counter arrays' length
// prefixes, the payload's extent — and then re-seal the frame (payload_len
// and CRC-32C recomputed), so every mutation is parsed. Each case must
// either decode to a bank whose re-serialization is the mutated frame
// itself, or throw WireError; any other exception (std::bad_alloc from an
// allocation a corrupt shape asked for, a length_error, ...) fails it.

constexpr std::size_t kHeaderBytes = 28;   // magic .. crc
constexpr std::size_t kPayloadLenAt = 16;  // u64, header offset
constexpr std::size_t kCrcAt = 24;         // u32, header offset
constexpr std::size_t kConfigBytes = 105;  // every shape, tag, both ci shapes

/// A config-block field: payload offset and width in bytes.
struct Field {
  const char* name;
  std::size_t at;
  std::size_t width;
};

constexpr Field kShapeFields[] = {
    {"rs48.key_bits", 8, 1},        {"rs48.num_stages", 9, 8},
    {"rs48.bucket_bits", 17, 1},    {"rs64.key_bits", 18, 1},
    {"rs64.num_stages", 19, 8},     {"rs64.bucket_bits", 27, 1},
    {"verification.num_stages", 28, 8},
    {"verification.num_buckets", 36, 8},
    {"original.num_stages", 44, 8}, {"original.num_buckets", 52, 8},
    {"twod.num_stages", 60, 8},     {"twod.x_buckets", 68, 8},
    {"twod.y_buckets", 76, 8},      {"ci48.key_bits", 85, 1},
    {"ci48.num_stages", 86, 8},     {"ci48.bucket_bits", 94, 1},
    {"ci64.key_bits", 95, 1},       {"ci64.num_stages", 96, 8},
    {"ci64.bucket_bits", 104, 1},
};
constexpr Field kBackendTag{"backend", 84, 1};

std::uint64_t get_le(const std::vector<std::uint8_t>& f, std::size_t at,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= std::uint64_t{f[at + i]} << (8 * i);
  }
  return v;
}

void put_le(std::vector<std::uint8_t>& f, std::size_t at, std::size_t width,
            std::uint64_t v) {
  for (std::size_t i = 0; i < width; ++i) {
    f[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Recomputes payload_len and the CRC over whatever payload follows the
/// header, so the mutated frame passes the header checks.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> f) {
  put_le(f, kPayloadLenAt, 8, f.size() - kHeaderBytes);
  put_le(f, kCrcAt, 4,
         crc32c(std::span<const std::uint8_t>(f).subspan(kHeaderBytes)));
  return f;
}

/// Frame offset of each counter array's u64 length prefix (ten int32
/// grids), with its element width.
std::vector<std::pair<std::size_t, std::size_t>> array_prefixes(
    const std::vector<std::uint8_t>& f) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t at = kHeaderBytes + kConfigBytes;
  for (std::size_t i = 0; i < SketchBank::kNumIntervalGrids; ++i) {
    const std::size_t width = 4;
    out.emplace_back(at, width);
    at += 8 + width * get_le(f, at, 8);
  }
  return out;
}

using Values = std::vector<std::uint64_t>;
constexpr std::uint64_t kOne = 1;

struct FuzzCase {
  std::string what;
  std::vector<std::uint8_t> frame;
  bool must_reject;  // no valid frame has this body (a shape field may)
};

/// Every structured mutation of `clean`, each resealed.
std::vector<FuzzCase> structured_mutations(
    const std::vector<std::uint8_t>& clean) {
  std::vector<FuzzCase> cases;
  const auto add = [&](std::string what, std::vector<std::uint8_t> f,
                       bool must_reject = true) {
    cases.push_back({std::move(what), reseal(std::move(f)), must_reject});
  };
  const auto set_field = [&](const Field& fd, std::uint64_t v) {
    auto f = clean;
    put_le(f, kHeaderBytes + fd.at, fd.width, v);
    add(std::string(fd.name) + "=" + std::to_string(v), std::move(f),
        /*must_reject=*/false);
  };
  // Shape fields: zero, one, off by one, doubled, the bounds the decoder
  // caps at, and values whose products wrap 64 bits.
  for (const Field& fd : kShapeFields) {
    const std::uint64_t v = get_le(clean, kHeaderBytes + fd.at, fd.width);
    if (fd.width == 1) {
      for (const std::uint64_t x : Values{0, 1, v - 1, v + 1, 2 * v, 8, 30,
                                          31, 32, 63, 64, 65, 128, 255}) {
        set_field(fd, x & 0xff);
      }
    } else {
      for (const std::uint64_t x :
           Values{0, 1, v - 1, v + 1, 2 * v, 64, 65, kOne << 30,
                  (kOne << 30) + 1, kOne << 32, (kOne << 62) + v, kOne << 63,
                  ~std::uint64_t{0}}) {
        set_field(fd, x);
      }
    }
  }
  for (const std::uint64_t tag : Values{0, 1, 2, 255}) {
    set_field(kBackendTag, tag);
  }
  // Array length prefixes: off by one, empty, huge, and counts whose byte
  // size wraps 64 bits back to the true size.
  const auto prefixes = array_prefixes(clean);
  for (std::size_t a = 0; a < prefixes.size(); ++a) {
    const auto [at, width] = prefixes[a];
    const std::uint64_t n = get_le(clean, at, 8);
    // width * wrap == 2^64
    const std::uint64_t wrap = (~std::uint64_t{0} / width) + 1;
    for (const std::uint64_t x :
         Values{n - 1, n + 1, 0, kOne << 62, kOne << 63, ~std::uint64_t{0},
                n + wrap, n + 2 * wrap}) {
      auto f = clean;
      put_le(f, at, 8, x);
      add("array " + std::to_string(a) + " len=" + std::to_string(x),
          std::move(f));
    }
  }
  // Truncation: inside the config block, at and inside each array, and
  // just short of the end.
  std::vector<std::size_t> cuts = {kHeaderBytes, kHeaderBytes + 1,
                                   kHeaderBytes + kConfigBytes - 1,
                                   kHeaderBytes + kConfigBytes,
                                   clean.size() - 8, clean.size() - 1};
  for (const auto& [at, width] : prefixes) {
    cuts.insert(cuts.end(), {at, at + 4, at + 8, at + 8 + width + 1});
  }
  for (const std::size_t cut : cuts) {
    if (cut >= clean.size()) continue;
    add("truncated to " + std::to_string(cut),
        std::vector<std::uint8_t>(clean.begin(),
                                  clean.begin() + static_cast<long>(cut)));
  }
  // Trailing bytes after a complete body.
  for (const std::size_t extra : {1u, 4u, 8u, 64u}) {
    auto f = clean;
    f.insert(f.end(), extra, 0xab);
    add("trailing " + std::to_string(extra), std::move(f));
  }
  return cases;
}

TEST(WireFuzzTest, StructuredMutationsDecodeExactlyOrThrowWireError) {
  for (const SketchBackendKind backend :
       {SketchBackendKind::kReversible, SketchBackendKind::kCompact}) {
    SketchBankConfig cfg = tiny_cfg();
    cfg.backend = backend;
    cfg.ci48 = {.key_bits = 48, .num_stages = 2, .bucket_bits = 4, .seed = 0};
    cfg.ci64 = {.key_bits = 64, .num_stages = 2, .bucket_bits = 5, .seed = 0};
    SketchBank bank(cfg);
    PacketRecord p;
    p.dip = IPv4(129, 105, 1, 1);
    p.dport = 443;
    for (int i = 0; i < 120; ++i) {
      p.sip = IPv4{0x0a000000u + static_cast<std::uint32_t>(i % 40)};
      p.sport = static_cast<std::uint16_t>(1024 + i);
      p.flags = i % 3 == 0 ? (kSyn | kAck) : kSyn;
      bank.record(p);
    }
    const auto clean = serialize_frame(bank, 5, 9);
    // The offsets above describe this frame.
    ASSERT_EQ(clean[3], '5');
    ASSERT_EQ(get_le(clean, kHeaderBytes + 36, 8),
              cfg.verification.num_buckets);
    ASSERT_EQ(get_le(clean, kHeaderBytes + kBackendTag.at, 1),
              static_cast<std::uint64_t>(backend));
    const auto prefixes = array_prefixes(clean);
    ASSERT_EQ(prefixes.back().first + 8 +
                  4 * get_le(clean, prefixes.back().first, 8) + 8,
              clean.size());

    std::size_t decoded = 0, rejected = 0;
    for (const FuzzCase& c : structured_mutations(clean)) {
      const auto where = [&] {
        return ::testing::Message() << sketch_backend_name(backend) << ": "
                                    << c.what;
      };
      try {
        const BankFrame frame = deserialize_frame(c.frame);
        EXPECT_FALSE(c.must_reject) << where() << " decoded";
        EXPECT_EQ(serialize_frame(frame.bank, frame.router_id,
                                  frame.interval),
                  c.frame)
            << where() << " decoded to a different frame";
        ++decoded;
      } catch (const WireError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << where() << " threw " << e.what();
      }
    }
    // Most shape mutations break the shape/footprint agreement or name a
    // shape no sketch accepts (the unused backend's included); some (a
    // valid unused shape, a key width the sketch accepts) leave a valid
    // frame of another bank, which must then round-trip exactly.
    EXPECT_GT(rejected, decoded) << sketch_backend_name(backend);
    EXPECT_GT(decoded, 0u) << sketch_backend_name(backend);
  }
}

}  // namespace
}  // namespace hifind
