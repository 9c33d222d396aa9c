// Batched sketch-update operands.
//
// The recording hot path (paper Sec. 5.5.3) applies long runs of independent
// UPDATEs whose bucket indices are data-dependent random accesses into
// multi-megabyte counter arrays — a classic cache-miss-bound loop. The batch
// APIs (`update_batch` on each sketch type) take a block of these operands.
// The reversible and 2D sketches compute every bucket index first while
// issuing software prefetches for the counter lines, and only then apply the
// deltas, so the hash work of later keys overlaps the memory latency of
// earlier ones; the k-ary sketch, cache-resident at every shape in use,
// applies update() per operand.
//
// Batch updates are BIT-IDENTICAL to the equivalent sequence of scalar
// update() calls: per sketch, counters and stage sums receive the same
// additions in the same order — prefetching never reorders arithmetic.
// Operands carry the delta in the sketch's counter type (double, or int32
// for the per-interval recording sketches).
#pragma once

#include <cstdint>

namespace hifind {

/// One pending 1D-sketch update: add `delta` to `key`'s bucket per stage.
template <class C>
struct BasicKeyDelta {
  std::uint64_t key;
  C delta;
};
using KeyDelta = BasicKeyDelta<double>;

/// One pending 2D-sketch update: add `delta` at (x_key, y_key) per stage.
template <class C>
struct BasicKeyDelta2d {
  std::uint64_t x_key;
  std::uint64_t y_key;
  C delta;
};
using KeyDelta2d32 = BasicKeyDelta2d<std::int32_t>;

/// Portable best-effort prefetch of the cache line holding *p (for write).
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace hifind
