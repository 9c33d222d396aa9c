#include "detect/sketch_wire.hpp"

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/byte_io.hpp"
#include "common/hash.hpp"

namespace hifind {

const char* wire_fault_name(WireFault fault) {
  switch (fault) {
    case WireFault::kBadMagic:
      return "bad magic";
    case WireFault::kTruncated:
      return "truncated";
    case WireFault::kBadLength:
      return "bad length";
    case WireFault::kChecksumMismatch:
      return "checksum mismatch";
    case WireFault::kBadPayload:
      return "bad payload";
    case WireFault::kTrailingBytes:
      return "trailing bytes";
  }
  return "unknown";
}

WireError::WireError(WireFault fault, const std::string& detail)
    : std::runtime_error("SketchBank wire [" +
                         std::string(wire_fault_name(fault)) + "]: " + detail),
      fault_(fault) {}

/// Friend of SketchBank: packs/unpacks the counter grids.
class SketchBankWire {
 public:
  static constexpr std::uint32_t kMagic = 0x35424648;  // "HFB5"

  static void serialize_body(ByteWriter& w, const SketchBank& bank) {
    write_config(w, bank.config());
    for (const CounterGrid32* g : bank.interval_grids()) {
      w.i32_span(g->counters());
    }
    w.u64(bank.packets_recorded_);
  }

  /// Parses the body (config + counters). Translates the untyped
  /// ByteReader/load_counters errors into WireError.
  static SketchBank deserialize_body(ByteReader& r) {
    try {
      const SketchBankConfig cfg = read_config(r);
      // Refuse before constructing the bank unless the config's implied
      // counter footprint matches the bytes actually present. Without this,
      // a flipped byte in a num_buckets/num_stages field makes the decoder
      // ALLOCATE the corrupt (possibly multi-GB) shape before the size
      // mismatch is noticed — an allocation-DoS a flood of corrupt frames
      // could drive at the central site.
      const u128 expected = counter_bytes(cfg);
      if (expected > r.remaining()) {
        throw WireError(WireFault::kTruncated,
                        "payload shorter than the embedded config implies");
      }
      if (expected < r.remaining()) {
        throw WireError(WireFault::kTrailingBytes,
                        "payload longer than the embedded config implies");
      }
      SketchBank bank(cfg);
      try {
        for (CounterGrid32* g : bank.interval_grids()) {
          g->load_counters(r.i32_vector());
        }
      } catch (const std::invalid_argument& e) {
        // Counter-array sizes disagree with the embedded config.
        throw WireError(WireFault::kBadPayload, e.what());
      }
      bank.packets_recorded_ = r.u64();
      bank.bound_from_counters();
      return bank;
    } catch (const WireError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      // The embedded config itself violates a sketch invariant.
      throw WireError(WireFault::kBadPayload, e.what());
    } catch (const std::runtime_error& e) {
      // ByteReader underrun: the body ends mid-field.
      throw WireError(WireFault::kTruncated, e.what());
    }
  }

  using u128 = unsigned __int128;

  /// Serialized size of the config block (fixed: every field, always).
  static std::size_t config_bytes() {
    static const std::size_t n = [] {
      ByteWriter w;
      write_config(w, SketchBankConfig{});
      return w.bytes().size();
    }();
    return n;
  }

  /// Exact size of everything after the config block: the ten
  /// length-prefixed int32 counter arrays and the packets_recorded trailer.
  /// Loose per-field caps first, so the arithmetic cannot overflow and
  /// absurd shapes are rejected without allocation.
  static u128 counter_bytes(const SketchBankConfig& c) {
    const auto cap = [](std::uint64_t v, std::uint64_t max) {
      if (v > max) {
        throw WireError(WireFault::kBadPayload,
                        "config field exceeds sane bounds");
      }
      return v;
    };
    const auto rs_len = [&](const ReversibleSketchConfig& rs) {
      return u128{cap(static_cast<std::uint64_t>(rs.num_stages), 64)}
             << cap(static_cast<std::uint64_t>(rs.bucket_bits), 30);
    };
    // Compact backend: per bucket 1 value counter + key_bits bit counters.
    const auto ci_len = [&](const CompactInvertibleConfig& ci) {
      return (u128{cap(static_cast<std::uint64_t>(ci.num_stages), 64)}
              << cap(static_cast<std::uint64_t>(ci.bucket_bits), 30)) *
             (1 + cap(static_cast<std::uint64_t>(ci.key_bits), 64));
    };
    const auto kary_len = [&](const KarySketchConfig& k) {
      return u128{cap(k.num_stages, 64)} * cap(k.num_buckets, 1u << 30);
    };
    const u128 twod_len = u128{cap(c.twod.num_stages, 64)} *
                          cap(c.twod.x_buckets, 1u << 30) *
                          cap(c.twod.y_buckets, 1u << 30);
    const bool compact = c.backend == SketchBackendKind::kCompact;
    const u128 inv_len = compact ? 2 * ci_len(c.ci48) + ci_len(c.ci64)
                                 : 2 * rs_len(c.rs48) + rs_len(c.rs64);
    // Verification sketches and SYNACK share one shape.
    const u128 counters = inv_len + 4 * kary_len(c.verification) +
                          kary_len(c.original) + 2 * twod_len;
    return 4 * counters + SketchBank::kNumIntervalGrids * 8 + 8;
  }

 private:
  static void write_config(ByteWriter& w, const SketchBankConfig& c) {
    w.u64(c.seed);
    w.u8(static_cast<std::uint8_t>(c.rs48.key_bits));
    w.u64(c.rs48.num_stages);
    w.u8(static_cast<std::uint8_t>(c.rs48.bucket_bits));
    w.u8(static_cast<std::uint8_t>(c.rs64.key_bits));
    w.u64(c.rs64.num_stages);
    w.u8(static_cast<std::uint8_t>(c.rs64.bucket_bits));
    w.u64(c.verification.num_stages);
    w.u64(c.verification.num_buckets);
    w.u64(c.original.num_stages);
    w.u64(c.original.num_buckets);
    w.u64(c.twod.num_stages);
    w.u64(c.twod.x_buckets);
    w.u64(c.twod.y_buckets);
    w.u8(static_cast<std::uint8_t>(c.backend));
    w.u8(static_cast<std::uint8_t>(c.ci48.key_bits));
    w.u64(c.ci48.num_stages);
    w.u8(static_cast<std::uint8_t>(c.ci48.bucket_bits));
    w.u8(static_cast<std::uint8_t>(c.ci64.key_bits));
    w.u64(c.ci64.num_stages);
    w.u8(static_cast<std::uint8_t>(c.ci64.bucket_bits));
  }

  static SketchBankConfig read_config(ByteReader& r) {
    SketchBankConfig c;
    c.seed = r.u64();
    c.rs48.key_bits = r.u8();
    c.rs48.num_stages = r.u64();
    c.rs48.bucket_bits = r.u8();
    c.rs64.key_bits = r.u8();
    c.rs64.num_stages = r.u64();
    c.rs64.bucket_bits = r.u8();
    c.verification.num_stages = r.u64();
    c.verification.num_buckets = r.u64();
    c.original.num_stages = r.u64();
    c.original.num_buckets = r.u64();
    c.twod.num_stages = r.u64();
    c.twod.x_buckets = r.u64();
    c.twod.y_buckets = r.u64();
    const std::uint8_t backend = r.u8();
    if (backend > static_cast<std::uint8_t>(SketchBackendKind::kCompact)) {
      throw WireError(WireFault::kBadPayload, "unknown sketch backend tag");
    }
    c.backend = static_cast<SketchBackendKind>(backend);
    c.ci48.key_bits = r.u8();
    c.ci48.num_stages = r.u64();
    c.ci48.bucket_bits = r.u8();
    c.ci64.key_bits = r.u8();
    c.ci64.num_stages = r.u64();
    c.ci64.bucket_bits = r.u8();
    return c;
  }
};

namespace {

/// Fixed preamble: magic u32 | router u32 | interval u64 | payload_len u64
/// | crc u32.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

}  // namespace

std::size_t frame_bytes(const SketchBankConfig& config) {
  const SketchBankWire::u128 n = kHeaderBytes +
                                 SketchBankWire::config_bytes() +
                                 SketchBankWire::counter_bytes(config);
  if (n > std::numeric_limits<std::size_t>::max()) {
    throw WireError(WireFault::kBadPayload, "frame exceeds the address space");
  }
  return static_cast<std::size_t>(n);
}

std::vector<std::uint8_t> serialize_frame(const SketchBank& bank,
                                          std::uint32_t router_id,
                                          std::uint64_t interval) {
  ByteWriter payload;
  SketchBankWire::serialize_body(payload, bank);
  const std::vector<std::uint8_t>& body = payload.bytes();

  ByteWriter w;
  w.u32(SketchBankWire::kMagic);
  w.u32(router_id);
  w.u64(interval);
  w.u64(body.size());
  w.u32(crc32c(body));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

BankFrame deserialize_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) {
    throw WireError(WireFault::kTruncated, "no room for magic");
  }
  ByteReader r(bytes);
  if (r.u32() != SketchBankWire::kMagic) {
    throw WireError(WireFault::kBadMagic, "not an HFB5 frame");
  }
  if (bytes.size() < kHeaderBytes) {
    throw WireError(WireFault::kTruncated, "frame shorter than its header");
  }
  const std::uint32_t router_id = r.u32();
  const std::uint64_t interval = r.u64();
  const std::uint64_t payload_len = r.u64();
  const std::uint32_t crc = r.u32();
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  if (payload.size() < payload_len) {
    throw WireError(WireFault::kTruncated, "payload shorter than declared");
  }
  if (payload.size() > payload_len) {
    throw WireError(WireFault::kBadLength, "payload longer than declared");
  }
  if (crc32c(payload) != crc) {
    throw WireError(WireFault::kChecksumMismatch, "payload CRC-32C failed");
  }
  // The footprint check makes a decoded body consume the payload exactly.
  ByteReader body(payload);
  return BankFrame{router_id, interval, SketchBankWire::deserialize_body(body)};
}

}  // namespace hifind
