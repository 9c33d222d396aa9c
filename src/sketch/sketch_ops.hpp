// Batched sketch-update operands.
//
// The recording hot path (paper Sec. 5.5.3) applies long runs of independent
// UPDATEs whose bucket indices are data-dependent random accesses into
// multi-megabyte counter arrays — a classic cache-miss-bound loop. The batch
// APIs (`update_batch` on each sketch type) take a block of these operands.
// The reversible, compact and 2D sketches compute every bucket index first
// while issuing software prefetches for the counter lines, and only then
// apply the deltas, so the hash work of later keys overlaps the memory
// latency of earlier ones; the k-ary sketch, cache-resident at every shape
// in use, applies each operand as it hashes it.
//
// Batch updates are BIT-IDENTICAL to the equivalent sequence of scalar
// update() calls: per sketch, counters and stage sums receive the same
// additions in the same order — prefetching never reorders arithmetic.
// Operands carry the delta as an int32 counter delta, the type every
// sketch records.
#pragma once

#include <cstdint>

namespace hifind {

/// One pending 1D-sketch update: add `delta` to `key`'s bucket per stage.
struct KeyDelta {
  std::uint64_t key;
  std::int32_t delta;
};

/// One pending 2D-sketch update: add `delta` at (x_key, y_key) per stage.
struct KeyDelta2d {
  std::uint64_t x_key;
  std::uint64_t y_key;
  std::int32_t delta;
};

/// Portable best-effort prefetch of the cache line holding *p (for write).
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace hifind
