// Hugepage-aware counter allocation (common/mem_policy.hpp): the huge path
// must hand back 2 MiB-aligned, fully writable ranges whose release is a
// pure function of the byte size, and the small path must stay plain
// operator new. The THP-off CI job runs these with HIFIND_THP=off, the
// plain-pages rung of the fallback ladder.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/mem_policy.hpp"

namespace hifind::mem {
namespace {

constexpr std::size_t kHugeAlign = std::size_t{2} << 20;

TEST(MemPolicyTest, HugeAllocIsAlignedAndWritable) {
  const std::size_t bytes = 3u << 20;  // rs64-sized: above the threshold
  void* p = alloc_counters(bytes);
  ASSERT_NE(p, nullptr);
#if defined(__linux__)
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugeAlign, 0u)
      << "huge-path allocation not 2 MiB-aligned";
#endif
  // Touch every page: first/last byte plus a page-strided sweep.
  auto* bytes_p = static_cast<unsigned char*>(p);
  std::memset(bytes_p, 0xab, bytes);
  EXPECT_EQ(bytes_p[0], 0xab);
  EXPECT_EQ(bytes_p[bytes - 1], 0xab);
  free_counters(p, bytes);
}

TEST(MemPolicyTest, SmallAllocWorks) {
  const std::size_t bytes = 64 * 1024;  // below kHugeThresholdBytes
  void* p = alloc_counters(bytes);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5c, bytes);
  free_counters(p, bytes);
}

TEST(MemPolicyTest, HugeAllocLengthRoundsToWholePages) {
  EXPECT_EQ(huge_alloc_length(1), 4096u);
  EXPECT_EQ(huge_alloc_length(4096), 4096u);
  EXPECT_EQ(huge_alloc_length(4097), 8192u);
  const std::size_t bytes = (3u << 20) + 5;
  EXPECT_GE(huge_alloc_length(bytes), bytes);
  EXPECT_EQ(huge_alloc_length(bytes) % 4096u, 0u);
  // Deallocate recomputes the window from the size alone — the function
  // must be deterministic.
  EXPECT_EQ(huge_alloc_length(bytes), huge_alloc_length(bytes));
}

TEST(MemPolicyTest, CounterVecRoundTripsThroughHugeBacking) {
  CounterVec v(512 * 1024);  // 4 MiB of doubles: huge path
#if defined(__linux__)
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kHugeAlign, 0u);
#endif
  std::iota(v.begin(), v.end(), 0.0);
  CounterVec copy = v;  // copy through the allocator
  ASSERT_EQ(copy.size(), v.size());
  EXPECT_EQ(copy.front(), 0.0);
  EXPECT_EQ(copy.back(), static_cast<double>(v.size() - 1));
  copy.resize(16);  // shrink to the small regime and back
  copy.resize(512 * 1024, -1.0);
  EXPECT_EQ(copy[0], 0.0);
  EXPECT_EQ(copy[15], 15.0);
  EXPECT_EQ(copy.back(), -1.0);
}

}  // namespace
}  // namespace hifind::mem
