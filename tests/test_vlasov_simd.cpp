// Scalar-vs-vector equivalence of the six directional sweeps under the
// dispatch contract: the SIMD / LAT kernels mirror advect_line_scalar
// operation-for-operation and no build contracts a multiply-add, so the
// vectorized result must equal the scalar reference bit for bit, on every
// sweep tier the host supports.
//
// Deliberately awkward shapes: odd velocity extents produce tail lanes
// (partial groups fall back to the scalar path mid-sweep, and a velocity
// panel's lanes past its last full group run scalar), odd extents also
// misalign every lane group after the first (blocks are 64-byte aligned,
// interior group offsets are not), and mixed-sign uz lanes make the
// spatial z sweep straddle the floor(xi) boundary inside a group (the
// kernel's blended loop).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "common/options.hpp"
#include "common/rng.hpp"
#include "driver/scenario.hpp"
#include "mesh/grid.hpp"
#include "simd/dispatch.hpp"
#include "sweep_tiers.hpp"
#include "vlasov/splitting.hpp"
#include "vlasov/sweeps.hpp"

namespace {

using namespace v6d;
using vlasov::PhaseSpace;
using vlasov::SweepKernel;

PhaseSpace make_odd_ps(int nx, int ny, int nz, int nux, int nuy, int nuz) {
  vlasov::PhaseSpaceDims d;
  d.nx = nx;
  d.ny = ny;
  d.nz = nz;
  d.nux = nux;
  d.nuy = nuy;
  d.nuz = nuz;
  vlasov::PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 1.0;
  g.umax = 1.0;
  g.dux = 2.0 / nux;
  g.duy = 2.0 / nuy;
  g.duz = 2.0 / nuz;
  PhaseSpace f(d, g);
  // Deterministic rough field (positive, non-smooth) so the MP limiter
  // and positivity clamp both take real branches.
  Xoshiro256 rng(42);
  const auto& dims = f.dims();
  for (int ix = 0; ix < dims.nx; ++ix)
    for (int iy = 0; iy < dims.ny; ++iy)
      for (int iz = 0; iz < dims.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = static_cast<float>(0.05 + rng.next_double());
      }
  return f;
}

mesh::Grid3D<double> make_accel(const PhaseSpace& f) {
  const auto& d = f.dims();
  mesh::Grid3D<double> accel(d.nx, d.ny, d.nz);
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k)
        accel.at(i, j, k) = 0.013 * (i + 1) - 0.017 * j + 0.011 * k;
  return accel;
}

std::size_t differing_floats(const PhaseSpace& a, const PhaseSpace& b) {
  const auto& d = a.dims();
  std::size_t differ = 0;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* pa = a.block(ix, iy, iz);
        const float* pb = b.block(ix, iy, iz);
        for (std::size_t v = 0; v < a.block_size(); ++v)
          if (std::memcmp(pa + v, pb + v, sizeof(float)) != 0) ++differ;
      }
  return differ;
}

/// Equal bits in every float of the two phase spaces.
::testing::AssertionResult sweeps_agree(const PhaseSpace& ref,
                                        const PhaseSpace& got) {
  const std::size_t differ = differing_floats(ref, got);
  if (differ == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << differ << " floats differ in bits";
}

struct Shape {
  int nx, ny, nz, nux, nuy, nuz;
};

// Odd extents everywhere: every velocity panel has 1-3 tail lanes at
// kSweepLanes = 4 (ux panels of 99, 65 and 190 lanes; uy panels and z-sweep
// groups over nuz = 11, 13, 19; uz panels of nuy = 9, 5, 10 lines).
const Shape kShapes[] = {
    {5, 4, 6, 7, 9, 11},   // odd velocity extents, tail lanes on all axes
    {4, 5, 3, 8, 5, 13},   // nuz = 13: three full groups + 1 tail lane
    {6, 3, 5, 6, 10, 19},  // nuz = 19: unaligned groups deep into the block
};

class VlasovSimdEquivalence : public ::testing::TestWithParam<SweepKernel> {};

// Both sides of each comparison run on the pinned tier: the scalar
// reference on the baseline-compiled scalar kernel, the vector kernels in
// the tier's flattened bodies.
TEST_P(VlasovSimdEquivalence, PositionSweepsMatchScalarBitForBit) {
  sweep_tiers::on_every_tier([&] {
    for (const Shape& s : kShapes) {
      for (int axis = 0; axis < 3; ++axis) {
        auto fa = make_odd_ps(s.nx, s.ny, s.nz, s.nux, s.nuy, s.nuz);
        auto fb = fa;
        // Large enough that floor(xi) differs across the velocity sign
        // boundary; non-round so theta never vanishes.
        const double drift = 0.73 * fa.geom().dx / fa.geom().umax;
        vlasov::advect_position_axis(fa, axis, drift, SweepKernel::kScalar,
                                     vlasov::AxisFaces{});
        vlasov::advect_position_axis(fb, axis, drift, GetParam(),
                                     vlasov::AxisFaces{});
        EXPECT_TRUE(sweeps_agree(fa, fb))
            << "position axis " << axis << " shape {" << s.nx << ","
            << s.ny << "," << s.nz << "," << s.nux << "," << s.nuy << ","
            << s.nuz << "}";
      }
    }
  });
}

TEST_P(VlasovSimdEquivalence, VelocitySweepsMatchScalarBitForBit) {
  sweep_tiers::on_every_tier([&] {
    for (const Shape& s : kShapes) {
      const auto accel_proto =
          make_accel(make_odd_ps(s.nx, s.ny, s.nz, s.nux, s.nuy, s.nuz));
      for (int axis = 0; axis < 3; ++axis) {
        auto fa = make_odd_ps(s.nx, s.ny, s.nz, s.nux, s.nuy, s.nuz);
        auto fb = fa;
        vlasov::advect_velocity_axis(fa, axis, accel_proto, 1.7,
                                     SweepKernel::kScalar);
        vlasov::advect_velocity_axis(fb, axis, accel_proto, 1.7, GetParam());
        EXPECT_TRUE(sweeps_agree(fa, fb))
            << "velocity axis " << axis << " shape {" << s.nx << ","
            << s.ny << "," << s.nz << "," << s.nux << "," << s.nuy << ","
            << s.nuz << "}";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Kernels, VlasovSimdEquivalence,
                         ::testing::Values(SweepKernel::kSimd,
                                           SweepKernel::kLat,
                                           SweepKernel::kAuto));

TEST(VlasovFusedKick, BitIdenticalToPerAxisSweeps) {
  // The fused kick must be a pure memory-traffic optimization: blocks are
  // independent, so per-block axis fusion cannot change a single bit.
  sweep_tiers::on_every_tier([&] {
    for (const SweepKernel kernel :
         {SweepKernel::kScalar, SweepKernel::kSimd, SweepKernel::kAuto}) {
      auto fa = make_odd_ps(5, 4, 3, 7, 9, 11);
      auto fb = fa;
      const auto accel = make_accel(fa);
      for (int axis = 0; axis < 3; ++axis)
        vlasov::advect_velocity_axis(fa, axis, accel, 0.9, kernel);
      vlasov::advect_velocity_all(fb, accel, accel, accel, 0.9, kernel);
      EXPECT_EQ(differing_floats(fa, fb), 0u)
          << "kernel " << simd::to_string(kernel);
    }
  });
}

TEST(SweepTiers, RealVlasovStepIsBitIdenticalOnEveryTier) {
  // One step and its synchronization (two kicks, one drift) of a real
  // vlasov_only state on every supported tier must leave the baseline
  // tier's phase space, bit for bit: the tiers differ only in instruction
  // encoding.
  Options options;
  options.set("nx", "8");
  options.set("nu", "12");
  const auto cfg = driver::make_config(options, "vlasov_only");
  const auto step_on = [&](simd::SweepTier tier) {
    const simd::ScopedSweepTier pin(tier);
    auto solver = driver::find_scenario("vlasov_only")->build(cfg, true);
    const double a0 = cfg.a_init;
    solver->step(a0, solver->suggest_next_a(a0, cfg.da_max));
    solver->synchronize();
    return solver->neutrinos();
  };
  const PhaseSpace baseline = step_on(simd::SweepTier::kBaseline);
  ASSERT_EQ(baseline.dims().nux, 12);
  for (const simd::SweepTier tier : simd::supported_tiers()) {
    const PhaseSpace got = step_on(tier);
    EXPECT_EQ(std::memcmp(got.raw(), baseline.raw(),
                          baseline.raw_size() * sizeof(float)),
              0)
        << "tier " << simd::to_string(tier);
  }
}

TEST(SweepTiers, PinningAnUnsupportedTierThrows) {
  for (const simd::SweepTier tier :
       {simd::SweepTier::kBaseline, simd::SweepTier::kAvx512}) {
    if (simd::tier_supported(tier)) {
      const simd::ScopedSweepTier pin(tier);
      EXPECT_EQ(simd::sweep_tier(), tier);
    } else {
      EXPECT_THROW(simd::ScopedSweepTier{tier}, std::invalid_argument);
    }
  }
  // The guard restores the process's tier: the widest supported one.
  EXPECT_EQ(simd::sweep_tier(), simd::supported_tiers().back());
}

TEST(SweepDispatch, ExplicitKernelsPassThrough) {
  for (const bool contiguous : {false, true}) {
    EXPECT_EQ(simd::resolve_sweep_kernel(SweepKernel::kScalar, contiguous),
              SweepKernel::kScalar);
    EXPECT_EQ(simd::resolve_sweep_kernel(SweepKernel::kSimd, contiguous),
              SweepKernel::kSimd);
    EXPECT_EQ(simd::resolve_sweep_kernel(SweepKernel::kLat, contiguous),
              SweepKernel::kLat);
  }
}

TEST(SweepDispatch, AutoPicksTable1Winners) {
  EXPECT_EQ(simd::resolve_sweep_kernel(SweepKernel::kAuto, false),
            SweepKernel::kSimd);
  EXPECT_EQ(simd::resolve_sweep_kernel(SweepKernel::kAuto, true),
            SweepKernel::kLat);
}

}  // namespace
