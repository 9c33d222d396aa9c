#include "common/mem_policy.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hifind::mem {
namespace {

constexpr std::size_t kPage = 4096;
constexpr std::size_t kHugeAlign = std::size_t{2} << 20;  // 2 MiB

bool env_off(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "off") == 0;
}

}  // namespace

std::size_t huge_alloc_length(std::size_t bytes) {
  return (bytes + kPage - 1) & ~(kPage - 1);
}

bool thp_enabled() {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  static const bool on = !env_off("HIFIND_THP");
  return on;
#else
  return false;
#endif
}

void* alloc_counters(std::size_t bytes) {
#if defined(__linux__)
  if (bytes >= kHugeThresholdBytes) {
    // Over-map by one huge-page stride, trim to a 2 MiB-aligned window, and
    // advise THP — the kernel can then back the whole array with 2 MiB
    // leaves. Deallocation recomputes the same trimmed window from the size
    // alone (see free_counters), so no header is needed.
    const std::size_t len = huge_alloc_length(bytes);
    void* raw = mmap(nullptr, len + kHugeAlign, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc{};
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (base + kHugeAlign - 1) & ~(kHugeAlign - 1);
    if (aligned > base) munmap(raw, aligned - base);
    const std::uintptr_t tail = aligned + len;
    const std::uintptr_t raw_end = base + len + kHugeAlign;
    if (raw_end > tail) munmap(reinterpret_cast<void*>(tail), raw_end - tail);
    void* p = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
    if (thp_enabled()) madvise(p, len, MADV_HUGEPAGE);
#endif
    return p;
  }
#endif
  return ::operator new(bytes);
}

void free_counters(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if defined(__linux__)
  if (bytes >= kHugeThresholdBytes) {
    munmap(p, huge_alloc_length(bytes));
    return;
  }
#endif
  ::operator delete(p);
}

}  // namespace hifind::mem
