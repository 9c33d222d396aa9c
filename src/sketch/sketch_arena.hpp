// Buffer pool for forecaster working sketches.
//
// Forecaster warm-up and reset used to clone full sketches (counter arrays
// plus hash tables — megabytes for the paper shapes). The arena keeps
// released sketches and satisfies the next shape-compatible acquire by
// copy-assigning into the pooled object's existing counter storage, so a
// detector that resets/rewarms forecasters (degraded-mode recovery, config
// swaps) reaches an allocation-free steady state. Acquires that find no
// compatible pooled sketch fall back to a clone; reuse/clone counters are
// exposed so tests can assert pooling actually happens.
//
// Thread safety: acquire/release are mutex-guarded — forecaster steps
// running on different TaskPool workers may hit the shared arena during
// warm-up or reset. (Steady-state steps never touch the arena at all.)
//
// Memory placement: sketch counter arrays allocate through
// mem::CounterAllocator (common/mem_policy.hpp), so every pooled sketch —
// and every per-shard bank replica — sits on 2 MiB-aligned, MADV_HUGEPAGE
// mmap backing. Pooling preserves that placement across acquire/release
// cycles: copy-assignment into an existing sketch reuses its huge-backed
// counter storage rather than reallocating.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "sketch/sketch_kernels.hpp"

namespace hifind {

template <class SketchT>
class SketchArena {
 public:
  SketchArena() = default;
  SketchArena(const SketchArena&) = delete;
  SketchArena& operator=(const SketchArena&) = delete;

  /// Returns a value-copy of `src`, reusing a pooled shape-compatible
  /// sketch's storage when one is available (no allocation), cloning
  /// otherwise.
  SketchT acquire_copy(const SketchT& src) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (pool_[i].combinable_with(src)) {
          SketchT out = std::move(pool_[i]);
          pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
          ++reuses_;
          kernels::assign(out, src);
          return out;
        }
      }
      ++clones_;
    }
    return SketchT(src);
  }

  /// Returns a sketch to the pool for later reuse.
  void release(SketchT&& sketch) {
    std::lock_guard<std::mutex> lock(mutex_);
    pool_.push_back(std::move(sketch));
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pool_.size();
  }
  std::size_t reuses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reuses_;
  }
  std::size_t clones() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return clones_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SketchT> pool_;
  std::size_t reuses_{0};
  std::size_t clones_{0};
};

}  // namespace hifind
