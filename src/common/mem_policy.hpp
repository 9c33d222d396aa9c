// Hugepage-backed allocation for sketch counter memory.
//
// At million-flow scale the recording hot path is bound by the memory
// hierarchy, not arithmetic: every update touches H random counter lines in
// multi-megabyte arrays, and 4 KiB pages thrash the dTLB. This layer
// addresses that without adding dependencies:
//
//  * CounterAllocator<T> — a std allocator that backs large allocations
//    (>= kHugeThresholdBytes) with a 2 MiB-aligned anonymous mmap marked
//    MADV_HUGEPAGE, so transparent huge pages can map each sketch stage with
//    a handful of TLB entries. Small allocations go through operator new
//    untouched. The huge/small decision is a pure function of the byte size,
//    so deallocate() routes to the matching release path deterministically.
//
// Fallback ladder: THP -> plain pages. Filesystems or kernels without THP
// end up with correct (just slower) plain allocations. HIFIND_THP=off in the
// environment disables the MADV_HUGEPAGE advice (the mmap backing remains),
// for measurement and triage.
//
// There is no NUMA placement: counter memory lives wherever the kernel's
// default first-touch policy puts it.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace hifind::mem {

/// Allocations at or above this byte size take the hugepage-aware mmap path.
/// 1 MiB: the TLB-busting counter arrays of the default bank shapes clear it
/// (rs64: 3 MiB, the 2D sketches: 10 MiB each), while stage-sum vectors,
/// hash tables, and forecaster scratch stay on the cheap operator-new path.
inline constexpr std::size_t kHugeThresholdBytes = std::size_t{1} << 20;

/// Rounds `bytes` up to the mmap length the huge path would reserve (whole
/// 4 KiB pages). Exposed so deallocate() and tests recompute it exactly.
std::size_t huge_alloc_length(std::size_t bytes);

/// True when MADV_HUGEPAGE advice is issued on huge-path allocations
/// (compile-time support present and HIFIND_THP != "off").
bool thp_enabled();

/// Always false: counter memory is never bound to a NUMA node. Kept so the
/// replay benchmark's run metadata can keep reporting the placement.
constexpr bool numa_enabled() { return false; }

/// Raw allocation entry points of the hugepage path (also used by tests).
/// alloc_counters throws std::bad_alloc on failure; free_counters must be
/// called with the original byte size.
void* alloc_counters(std::size_t bytes);
void free_counters(void* p, std::size_t bytes) noexcept;

/// std allocator over alloc_counters/free_counters. Stateless; all
/// instances are interchangeable.
template <class T>
struct CounterAllocator {
  using value_type = T;

  CounterAllocator() noexcept = default;
  template <class U>
  CounterAllocator(const CounterAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(alloc_counters(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_counters(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const CounterAllocator<U>&) const noexcept {
    return true;
  }
};

/// Counter storage type shared by the sketch substrates: a double vector on
/// hugepage-aware backing. Same element layout as std::vector<double>;
/// every external consumer reads through std::span, so only the sketch
/// classes see the allocator.
using CounterVec = std::vector<double, CounterAllocator<double>>;

}  // namespace hifind::mem
