// Runtime dispatch for the sweep pipeline: which line kernel a sweep runs
// (scalar reference, multi-lane SIMD, LAT in-register transpose), which
// instruction-set tier its compiled body runs on, and a description of
// that tier.
//
// The hot path asks for kAuto and this layer resolves it per axis, so the
// production binary always reaches the vectorized advect_simd/advect_lat
// path while tests and the Table-1 bench can still pin a concrete kernel.
//
// Tiers: each hot sweep body (one velocity block-axis, one spatial line's
// lane groups) is compiled from one source into a baseline copy plus, on
// x86-64, an AVX-512 copy (V6D_SWEEP_TIER_AVX512 below); the process runs
// the AVX-512 copy when its CPU supports it.  Both tiers run the same
// 4-lane kernels and no build contracts a multiply-add (-ffp-contract=off),
// so they perform the same float operations in the same order and give
// equal bits: the AVX-512 copy only encodes them better (three-operand
// EVEX forms, mask-register blends).
#pragma once

#include <string>
#include <vector>

namespace v6d::simd {

/// fp32 lanes per vector sweep kernel call, on every tier and in every
/// build.  Four lanes tile the production velocity grids (nu = 12: three
/// full groups per line) where eight would leave a scalar tail of four
/// lines, and a fixed count keeps one set of float operations per line
/// whatever the build's -march.  The paper's SVE kernels use 16 lanes
/// against 64-cell velocity grids.
inline constexpr int kSweepLanes = 4;

/// The tier the sweeps run on, as a perf report records it.
struct IsaInfo {
  std::string name;  // "AVX-512", or the baseline's ISA, e.g. "SSE2"
  int float_width;   // fp32 lanes per sweep kernel call (kSweepLanes)
  bool has_fma;      // whether the sweeps contract multiply-adds: never
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

/// Instruction-set tiers of the sweep bodies, narrowest first.
enum class SweepTier { kBaseline, kAvx512 };

/// "baseline" or "avx512".
const char* to_string(SweepTier tier);

/// Whether this binary holds `tier` and this CPU runs it.  The baseline
/// always does; the AVX-512 tier exists only in x86-64 builds and runs
/// only where the CPU reports every feature it is compiled for.
bool tier_supported(SweepTier tier);

/// Every supported tier, narrowest first.
std::vector<SweepTier> supported_tiers();

/// The tier the sweeps run on: the widest supported one, chosen once per
/// process, unless a ScopedSweepTier pins another.
SweepTier sweep_tier();

/// Test and bench seam: sweeps started while the guard lives run on
/// `tier` (std::invalid_argument when it is not supported).  Pin tiers
/// only between sweeps, never while another thread runs one.
class ScopedSweepTier {
 public:
  explicit ScopedSweepTier(SweepTier tier);
  ~ScopedSweepTier();
  ScopedSweepTier(const ScopedSweepTier&) = delete;
  ScopedSweepTier& operator=(const ScopedSweepTier&) = delete;

 private:
  SweepTier previous_;
};

/// The copy of a tiered sweep body for the running tier, given its
/// baseline and AVX-512 copies (V6D_SWEEP_TIER_AVX512 below).
template <class Fn>
Fn for_sweep_tier(Fn baseline, Fn avx512) {
  return sweep_tier() == SweepTier::kAvx512 ? avx512 : baseline;
}

/// OpenMP thread count the parallel sweeps will use (1 in serial builds).
int thread_count();

}  // namespace v6d::simd

// The function attribute that compiles a sweep body for the AVX-512 tier
// (the baseline copy is a plain function).  `flatten` inlines the whole body,
// Pack operations and vector kernel included, into the tiered function,
// so its wide instructions never reach code a baseline caller could
// share.  (A per-file -m flag would be unsafe: the out-of-line copies of
// inline Pack functions it emits could be the ones the linker keeps for
// baseline callers.)  GCC outlines an `omp parallel` body into a function
// that does not inherit a `target` attribute, so a tiered function is
// called inside the OpenMP loop, never around it.
#if defined(__x86_64__) && defined(__GNUC__)
#define V6D_SWEEP_TIERS 1
#define V6D_SWEEP_TIER_AVX512 \
  __attribute__((target("avx512f,avx512vl,avx512bw,avx512dq"), flatten))
#else
// No AVX-512 tier: its copy compiles as baseline code that sweep_tier()
// never selects.
#define V6D_SWEEP_TIERS 0
#define V6D_SWEEP_TIER_AVX512
#endif
