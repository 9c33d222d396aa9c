#include "common/byte_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hifind {
namespace {

TEST(ByteIoTest, RoundTripsScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(ByteIoTest, RoundTripsInt32Spans) {
  ByteWriter w;
  const std::vector<std::int32_t> values{0, -1, 7, INT32_MAX, INT32_MIN};
  w.i32_span(values);
  ASSERT_EQ(w.bytes().size(), 8 + 4 * values.size());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.i32_vector(), values);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, ReaderThrowsOnUnderrun) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u32(), std::runtime_error);
}

TEST(ByteIoTest, VectorReadRejectsBogusLength) {
  ByteWriter w;
  w.u64(1u << 30);  // claims a gigantic vector with no payload
  ByteReader r(w.bytes());
  EXPECT_THROW(r.i32_vector(), std::runtime_error);
}

TEST(ByteIoTest, VectorReadRejectsOverflowingLength) {
  // A corrupt count chosen so count * 4 wraps std::uint64_t to a small
  // number; the bound check must not be fooled into allocating.
  ByteWriter w;
  w.u64(0x4000000000000001ULL);  // * 4 == 4 (mod 2^64)
  w.u32(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.i32_vector(), std::runtime_error);
}

}  // namespace
}  // namespace hifind
