#include "simd/dispatch.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <stdexcept>

namespace v6d::simd {

namespace {

/// What the baseline copies are compiled for: the build's -march.
const char* baseline_isa_name() {
#if defined(__AVX512F__)
  return "AVX-512F";
#elif defined(__AVX2__)
  return "AVX2";
#elif defined(__AVX__)
  return "AVX";
#elif defined(__SSE2__)
  return "SSE2";
#else
  return "generic";
#endif
}

SweepTier widest_supported() {
  SweepTier widest = SweepTier::kBaseline;
  for (const SweepTier tier : supported_tiers()) widest = tier;
  return widest;
}

std::atomic<SweepTier>& active_tier() {
  static std::atomic<SweepTier> tier{widest_supported()};
  return tier;
}

}  // namespace

IsaInfo isa_info() {
  IsaInfo info;
  const SweepTier tier = sweep_tier();
  info.name = tier == SweepTier::kAvx512 ? "AVX-512" : baseline_isa_name();
  info.float_width = sweep_lanes(tier);
  info.has_fma = false;  // -ffp-contract=off in every build
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

const char* to_string(SweepTier tier) {
  switch (tier) {
    case SweepTier::kBaseline:
      return "baseline";
    case SweepTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool tier_supported(SweepTier tier) {
#if V6D_SWEEP_TIERS
  // Idempotent; needed when the first query runs before libgcc's own
  // constructor has probed the CPU (a static initializer).
  __builtin_cpu_init();
#endif
  switch (tier) {
    case SweepTier::kBaseline:
      return true;
#if V6D_SWEEP_TIERS
    // The features the tier's target attribute names (dispatch.hpp);
    // libgcc's probe also checks that the OS saves the wide registers.
    case SweepTier::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512dq");
#else
    case SweepTier::kAvx512:
      return false;
#endif
  }
  return false;
}

std::vector<SweepTier> supported_tiers() {
  std::vector<SweepTier> tiers;
  for (const SweepTier tier : {SweepTier::kBaseline, SweepTier::kAvx512})
    if (tier_supported(tier)) tiers.push_back(tier);
  return tiers;
}

SweepTier sweep_tier() { return active_tier().load(std::memory_order_relaxed); }

ScopedSweepTier::ScopedSweepTier(SweepTier tier) : previous_(sweep_tier()) {
  if (!tier_supported(tier))
    throw std::invalid_argument(std::string("sweep tier ") + to_string(tier) +
                                " is not supported on this host");
  active_tier().store(tier, std::memory_order_relaxed);
}

ScopedSweepTier::~ScopedSweepTier() {
  active_tier().store(previous_, std::memory_order_relaxed);
}

int thread_count() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace v6d::simd
