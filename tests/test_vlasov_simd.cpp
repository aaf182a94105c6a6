// Scalar-vs-vector equivalence of the six directional sweeps under the
// dispatch contract: the SIMD / LAT kernels mirror advect_line_scalar
// operation-for-operation, so on a build without FMA the vectorized result
// must equal the scalar reference bit for bit.  An FMA-contracting build
// may re-round the flux polynomial once, so there 1 ulp is allowed;
// nothing else is.
//
// Deliberately awkward shapes: odd velocity extents produce tail lanes
// (partial groups fall back to the scalar path mid-sweep), odd extents
// also misalign every lane group after the first (blocks are 64-byte
// aligned, interior group offsets are not), and mixed-sign uz lanes make
// the spatial z sweep straddle the floor(xi) boundary inside a group (the
// kernel's blended loop).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "mesh/grid.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/splitting.hpp"
#include "vlasov/sweeps.hpp"

namespace {

using namespace v6d;
using vlasov::PhaseSpace;
using vlasov::SweepKernel;

/// Distance in representable floats (0 = bit-identical).  Signed-magnitude
/// trick: map the float ordering onto the integer ordering.
std::int64_t ulp_diff(float a, float b) {
  auto key = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return static_cast<std::int64_t>(i < 0 ? INT32_MIN - i : i);
  };
  return std::abs(key(a) - key(b));
}

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

std::int64_t worst_ulp(const PhaseSpace& a, const PhaseSpace& b) {
  const auto& d = a.dims();
  std::int64_t worst = 0;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* pa = a.block(ix, iy, iz);
        const float* pb = b.block(ix, iy, iz);
        for (std::size_t v = 0; v < a.block_size(); ++v)
          worst = std::max(worst, ulp_diff(pa[v], pb[v]));
      }
  return worst;
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

/// Equal bits without FMA; within 1 ulp where FMA may re-round.
::testing::AssertionResult sweeps_agree(const PhaseSpace& ref,
                                        const PhaseSpace& got) {
  if (simd::isa_info().has_fma) {
    const std::int64_t ulp = worst_ulp(ref, got);
    if (ulp <= 1) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "worst difference " << ulp
                                         << " ulp";
  }
  const std::size_t differ = differing_floats(ref, got);
  if (differ == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << differ << " floats differ in bits";
}

struct Shape {
  int nx, ny, nz, nux, nuy, nuz;
};

// Odd extents everywhere; nuz chosen to exercise 0-3 tail lanes for any
// kLanes in {4, 8, 16}.
const Shape kShapes[] = {
    {5, 4, 6, 7, 9, 11},   // odd velocity extents, tail lanes on all axes
    {4, 5, 3, 8, 5, 13},   // nuz = 13: one more full group + 5-lane tail
    {6, 3, 5, 6, 10, 19},  // nuz = 19: unaligned groups deep into the block
};

class VlasovSimdEquivalence : public ::testing::TestWithParam<SweepKernel> {};

TEST_P(VlasovSimdEquivalence, PositionSweepsMatchScalarTo1Ulp) {
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
          << "position axis " << axis << " shape {" << s.nx << "," << s.ny
          << "," << s.nz << "," << s.nux << "," << s.nuy << "," << s.nuz
          << "}";
    }
  }
}

TEST_P(VlasovSimdEquivalence, VelocitySweepsMatchScalarTo1Ulp) {
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
          << "velocity axis " << axis << " shape {" << s.nx << "," << s.ny
          << "," << s.nz << "," << s.nux << "," << s.nuy << "," << s.nuz
          << "}";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, VlasovSimdEquivalence,
                         ::testing::Values(SweepKernel::kSimd,
                                           SweepKernel::kLat,
                                           SweepKernel::kAuto));

TEST(VlasovFusedKick, BitIdenticalToPerAxisSweeps) {
  // The fused kick must be a pure memory-traffic optimization: blocks are
  // independent, so per-block axis fusion cannot change a single bit.
  for (const SweepKernel kernel :
       {SweepKernel::kScalar, SweepKernel::kSimd, SweepKernel::kAuto}) {
    auto fa = make_odd_ps(5, 4, 3, 7, 9, 11);
    auto fb = fa;
    const auto accel = make_accel(fa);
    for (int axis = 0; axis < 3; ++axis)
      vlasov::advect_velocity_axis(fa, axis, accel, 0.9, kernel);
    vlasov::advect_velocity_all(fb, accel, accel, accel, 0.9, kernel);
    EXPECT_EQ(worst_ulp(fa, fb), 0)
        << "kernel " << simd::to_string(kernel);
  }
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
