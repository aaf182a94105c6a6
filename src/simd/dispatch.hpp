// Runtime kernel dispatch for the sweep pipeline, plus a description of the
// SIMD capabilities this binary was built with.
//
// Every sweep over the 6-D phase space can run with one of three line
// kernels (scalar reference, multi-lane SIMD, LAT in-register transpose).
// The hot path asks for kAuto and this layer resolves it per axis, so the
// production binary always reaches the vectorized advect_simd/advect_lat
// path while tests and the Table-1 bench can still pin a concrete kernel.
#pragma once

#include <string>

namespace v6d::simd {

struct IsaInfo {
  std::string name;       // e.g. "AVX2", "AVX-512F", "generic"
  int float_width;        // fp32 lanes per register the kernels use
  bool has_fma;
};

IsaInfo isa_info();

/// Kernel selection policy for a directional sweep.  kAuto defers the
/// choice to resolve_sweep_kernel(); the other three force a concrete
/// implementation (bench comparisons, the scalar test reference).
enum class SweepKernel { kScalar, kSimd, kLat, kAuto };

const char* to_string(SweepKernel kernel);

/// Resolve a requested kernel to the one a sweep should actually run.
///
/// Explicit requests (kScalar/kSimd/kLat) pass through untouched so bench
/// comparisons and the scalar test reference stay pinned.  kAuto picks the
/// paper's Table-1 winner for the axis: LAT when the sweep runs along the
/// memory-contiguous axis (uz), multi-lane SIMD for the five strided axes.
/// Never returns kAuto.
SweepKernel resolve_sweep_kernel(SweepKernel requested, bool contiguous_axis);

/// OpenMP thread count the parallel sweeps will use (1 in serial builds).
int thread_count();

}  // namespace v6d::simd
