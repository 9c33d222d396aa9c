// Little-endian byte-buffer serialization helpers.
//
// Used by the sketch wire format (router -> central site shipping) and kept
// deliberately tiny: explicit field-by-field encoding, no reflection, no
// endianness surprises.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace hifind {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i32_span(std::span<const std::int32_t> values) {
    u64(values.size());
    for (const std::int32_t v : values) u32(static_cast<std::uint32_t>(v));
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential little-endian decoder. Throws std::runtime_error on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::vector<std::int32_t> i32_vector() {
    std::vector<std::int32_t> out(counted(4));
    for (auto& v : out) v = static_cast<std::int32_t>(u32());
    return out;
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// Reads an element count and checks that many `width`-byte elements
  /// remain. Divides instead of multiplying (n * width can wrap for corrupt
  /// counts), so a corrupt count fails before anything is allocated.
  std::uint64_t counted(std::uint64_t width) {
    const std::uint64_t n = u64();
    if (n > (data_.size() - pos_) / width) {
      throw std::runtime_error("ByteReader: truncated input");
    }
    return n;
  }
  void need(std::uint64_t n) const {
    // Compare against the remaining span instead of `pos_ + n` so an
    // attacker-controlled length (e.g. a corrupted element count, n = count *
    // 8) cannot wrap std::uint64_t and sneak past the bound.
    if (n > data_.size() - pos_) {
      throw std::runtime_error("ByteReader: truncated input");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace hifind
