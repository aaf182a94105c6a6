#include "simd/dispatch.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "simd/pack.hpp"

namespace v6d::simd {

IsaInfo isa_info() {
  IsaInfo info;
  info.float_width = kNativeFloatWidth;
#if defined(__AVX512F__)
  info.name = "AVX-512F";
#elif defined(__AVX2__)
  info.name = "AVX2";
#elif defined(__AVX__)
  info.name = "AVX";
#elif defined(__SSE2__)
  info.name = "SSE2";
#else
  info.name = "generic";
#endif
#if defined(__FMA__)
  info.has_fma = true;
#else
  info.has_fma = false;
#endif
  return info;
}

const char* to_string(SweepKernel kernel) {
  switch (kernel) {
    case SweepKernel::kScalar:
      return "scalar";
    case SweepKernel::kSimd:
      return "simd";
    case SweepKernel::kLat:
      return "lat";
    case SweepKernel::kAuto:
      return "auto";
  }
  return "unknown";
}

SweepKernel resolve_sweep_kernel(SweepKernel requested, bool contiguous_axis) {
  if (requested != SweepKernel::kAuto) return requested;
  // Paper Table 1: the contiguous axis only vectorizes well through the
  // in-register transpose; everything else uses the multi-lane SIMD path.
  return contiguous_axis ? SweepKernel::kLat : SweepKernel::kSimd;
}

int thread_count() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace v6d::simd
