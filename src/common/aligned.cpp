#include "common/aligned.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace v6d {

namespace {

// AddressSanitizer checks only what comes from malloc, so under it every
// buffer stays there and keeps its overflow checks.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kMapBytes = std::size_t(1) << 20;
// A buffer starts one kSimdAlign unit past the page its mapping starts on,
// where glibc puts the blocks it maps itself: page-aligned phase spaces
// made the vlasov_only step about 4% slower (4-vCPU x86-64 host).
constexpr std::size_t kMapOffset = kSimdAlign;

bool mapped(std::size_t bytes) { return !kSanitized && bytes >= kMapBytes; }

#if defined(__GLIBC__)
// What stays in malloc's heap is mostly messages, allocated and freed every
// sweep.  glibc sets its trim threshold to twice the largest block freed so
// far; with the fields mapped above that block is a message, and the top of
// each rank thread's heap would go back to the kernel and be faulted in
// again every sweep.  Both thresholds are fixed, before the first
// allocation, at the ceilings glibc's own adaptation reaches.
[[maybe_unused]] const bool kMallocThresholdsFixed =
    mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
    mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1;
#endif

}  // namespace

void* aligned_allocate(std::size_t bytes) {
  if (mapped(bytes)) {
    void* map = mmap(nullptr, bytes + kMapOffset, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    return static_cast<char*>(map) + kMapOffset;
  }
  void* p = std::aligned_alloc(kSimdAlign, bytes);
  if (!p) throw std::bad_alloc();
  return p;
}

void aligned_free(void* p, std::size_t bytes) noexcept {
  if (mapped(bytes))
    munmap(static_cast<char*>(p) - kMapOffset, bytes + kMapOffset);
  else
    std::free(p);
}

}  // namespace v6d
