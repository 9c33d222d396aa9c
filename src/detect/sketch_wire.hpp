// Wire format for shipping SketchBanks from edge routers to the central
// aggregation site (paper Sec. 3.1: "we summarize the traffic information
// with compact sketches at each edge router, and deliver them quickly to
// some central site").
//
// One frame, "HFB5":
//
//   magic | router_id u32 | interval u64 | payload_len u64
//   | crc32c(payload) u32 | payload
//
//   payload = config (every shape, the backend tag and both compact shapes)
//             | ten counter grids, each a u64 length + that many int32
//             | packets_recorded u64
//
// All fields are little-endian. Counters ship as the bank stores them, 4
// bytes each, so a frame is the bank's memory_bytes() plus a header, a
// config block and eleven 8-byte fields (frame_bytes()). A frame carries one
// interval only: the lifetime SYN/ACK history is the central detector's, so
// an interval the collector never combines does not reach it.
//
// Every frame carries a header because the collection path between routers
// and the central site is a real network: frames get truncated, corrupted, replayed and
// reordered. The header binds each frame to its sender and interval (replay
// / cross-wiring detection at the collector), the explicit payload length
// catches truncation before parsing, and the CRC-32C rejects bit corruption
// that would otherwise silently poison the central COMBINE. Hash families
// are NOT shipped — they are deterministic functions of the config seed,
// which is the property that makes cross-site COMBINE meaningful.
//
// Any other magic is rejected as kBadMagic: the headerless, unchecksummed
// "HFB1" body, the "HFB2"/"HFB3" frames that widened every counter to f64
// (HFB3 adding the backend tag) before counters were int32, and "HFB4",
// which shipped the router's cumulative SYN/ACK history as f64 after nine
// int32 grids.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/sketch_bank.hpp"

namespace hifind {

/// Why a frame was rejected. Collector-side policy keys off this (e.g. a
/// checksum mismatch counts toward sender quarantine; a truncated read on a
/// pull that raced the writer is retried).
enum class WireFault : std::uint8_t {
  kBadMagic,          ///< first four bytes are not "HFB5"
  kTruncated,         ///< frame shorter than its header/payload claims
  kBadLength,         ///< payload_len disagrees with the bytes present
  kChecksumMismatch,  ///< CRC-32C over the payload failed
  kBadPayload,        ///< payload parsed but is internally inconsistent
  kTrailingBytes,     ///< well-formed frame followed by extra bytes
};

const char* wire_fault_name(WireFault fault);

/// Typed rejection of a malformed frame. Derives from std::runtime_error so
/// call sites that catch the untyped error keep working.
class WireError : public std::runtime_error {
 public:
  WireError(WireFault fault, const std::string& detail);
  WireFault fault() const { return fault_; }

 private:
  WireFault fault_;
};

/// A decoded shipment: the bank plus the header that routes it.
struct BankFrame {
  std::uint32_t router_id{0};
  std::uint64_t interval{0};
  SketchBank bank;
};

/// Serializes one router's bank for one interval as an HFB5 frame.
std::vector<std::uint8_t> serialize_frame(const SketchBank& bank,
                                          std::uint32_t router_id,
                                          std::uint64_t interval);

/// Decodes an HFB5 frame; throws WireError on malformed input.
BankFrame deserialize_frame(std::span<const std::uint8_t> bytes);

/// Serializes a bank with a default header (router 0, interval 0). Kept as
/// the simple API for single-site uses that don't care about provenance.
std::vector<std::uint8_t> serialize_bank(const SketchBank& bank);

/// Reconstructs a bank from serialize_bank / serialize_frame output. Throws
/// WireError (a std::runtime_error) on malformed input.
SketchBank deserialize_bank(std::span<const std::uint8_t> bytes);

/// Exact size of the frame serialize_frame writes for a bank of `config`:
/// what one router ships per interval. Throws WireError (kBadPayload) on a
/// shape no frame can carry (a field past its sane bound).
std::size_t frame_bytes(const SketchBankConfig& config);

}  // namespace hifind
