// Aligned heap allocation for SIMD-friendly buffers.
//
// Phase-space blocks and mesh fields are allocated with 64-byte alignment so
// that SIMD loads in the advection kernels never straddle cache lines and the
// LAT transpose can use aligned register loads.
//
// A buffer of a mebibyte or more (a phase space, a large mesh) is mapped
// from the kernel and unmapped when freed, never kept in malloc's heap.
// glibc raises its mmap threshold to the size of each large block it frees
// (up to 32 MiB), so later ones would come from its heap and stay resident
// once freed; whether the next one reused that memory would depend on what
// other threads allocated in between, and a process's peak memory would
// vary from run to run by a whole phase space.  Messages stay in malloc,
// whose thresholds aligned.cpp fixes so that they are recycled.
#pragma once

#include <cstddef>
#include <vector>

namespace v6d {

inline constexpr std::size_t kSimdAlign = 64;

/// `bytes` (a nonzero multiple of kSimdAlign) at kSimdAlign alignment;
/// throws std::bad_alloc.
void* aligned_allocate(std::size_t bytes);
/// Free what aligned_allocate(bytes) returned.
void aligned_free(void* p, std::size_t bytes) noexcept;

/// Allocator usable with std::vector that guarantees kSimdAlign alignment.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(aligned_allocate(round_up(n * sizeof(T))));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (p) aligned_free(p, round_up(n * sizeof(T)));
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }

 private:
  // aligned_alloc requires the size to be a multiple of the alignment.
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kSimdAlign - 1) / kSimdAlign * kSimdAlign;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace v6d
