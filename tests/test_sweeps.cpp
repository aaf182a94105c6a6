#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sweep_tiers.hpp"
#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"
#include "vlasov/sweeps.hpp"

namespace {

using namespace v6d::vlasov;

PhaseSpace make_ps(int nx, int nu, double box = 8.0, double umax = 1.0) {
  PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = box / nx;
  g.umax = umax;
  g.dux = g.duy = g.duz = 2.0 * umax / nu;
  return PhaseSpace(d, g);
}

// Gaussian blob in space x Maxwellian in velocity.
void fill_blob(PhaseSpace& f, double center_frac = 0.5) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double cx = center_frac * d.nx * g.dx;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        const double rx = g.x(ix) - cx, ry = g.y(iy) - cx, rz = g.z(iz) - cx;
        const double amp =
            std::exp(-(rx * rx + ry * ry + rz * rz) / (2.0 * 1.5 * 1.5));
        std::size_t v = 0;
        for (int a = 0; a < d.nux; ++a)
          for (int b = 0; b < d.nuy; ++b)
            for (int c = 0; c < d.nuz; ++c, ++v) {
              const double u2 = g.ux(a) * g.ux(a) + g.uy(b) * g.uy(b) +
                                g.uz(c) * g.uz(c);
              blk[v] = static_cast<float>(
                  amp * std::exp(-u2 / (2.0 * 0.3 * 0.3)));
            }
      }
}

// Every SweepKernels case runs on each sweep tier the host supports.
class SweepKernels : public ::testing::TestWithParam<SweepKernel> {};

TEST_P(SweepKernels, PositionSweepsConserveMass) {
  v6d::sweep_tiers::on_every_tier([&] {
    auto f = make_ps(8, 8);
    fill_blob(f);
    const double mass0 = f.total_mass();
    for (int axis = 0; axis < 3; ++axis)
      advect_position_axis(f, axis, 0.9 * f.geom().dx / f.geom().umax,
                           GetParam(), AxisFaces{});
    EXPECT_NEAR(f.total_mass(), mass0, 2e-5 * mass0);
    EXPECT_GE(f.min_interior(), 0.0f);
  });
}

TEST_P(SweepKernels, VelocitySweepsConserveMassWithinDomain) {
  // Wide velocity cube (edge at ~6.7 sigma) so the Maxwellian tail carries
  // negligible mass through the open boundary during a small kick.
  v6d::sweep_tiers::on_every_tier([&] {
    auto f = make_ps(4, 16, 8.0, 2.0);
    fill_blob(f);
    const double mass0 = f.total_mass();
    v6d::mesh::Grid3D<double> accel(4, 4, 4);
    accel.fill(0.02);
    for (int axis = 0; axis < 3; ++axis)
      advect_velocity_axis(f, axis, accel, 1.0, GetParam());
    EXPECT_NEAR(f.total_mass(), mass0, 1e-4 * mass0);
    EXPECT_GE(f.min_interior(), 0.0f);
  });
}

TEST_P(SweepKernels, MatchesScalarReference) {
  if (GetParam() == SweepKernel::kScalar) GTEST_SKIP();
  v6d::sweep_tiers::on_every_tier([&] {
    auto fa = make_ps(6, 8);
    auto fb = make_ps(6, 8);
    fill_blob(fa);
    fill_blob(fb);
    v6d::mesh::Grid3D<double> accel(6, 6, 6);
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j)
        for (int k = 0; k < 6; ++k)
          accel.at(i, j, k) = 0.02 * (i - j + 2 * k);

    for (int axis = 0; axis < 3; ++axis) {
      advect_position_axis(fa, axis, 0.5 * fa.geom().dx, SweepKernel::kScalar,
                           AxisFaces{});
      advect_position_axis(fb, axis, 0.5 * fb.geom().dx, GetParam(),
                           AxisFaces{});
      advect_velocity_axis(fa, axis, accel, 0.7, SweepKernel::kScalar);
      advect_velocity_axis(fb, axis, accel, 0.7, GetParam());
    }
    const auto& d = fa.dims();
    float worst = 0.0f;
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz) {
          const float* a = fa.block(ix, iy, iz);
          const float* b = fb.block(ix, iy, iz);
          for (std::size_t v = 0; v < fa.block_size(); ++v)
            worst = std::max(worst, std::fabs(a[v] - b[v]));
        }
    EXPECT_LT(worst, 5e-6f);
  });
}

INSTANTIATE_TEST_SUITE_P(Kernels, SweepKernels,
                         ::testing::Values(SweepKernel::kScalar,
                                           SweepKernel::kSimd,
                                           SweepKernel::kLat,
                                           SweepKernel::kAuto));

TEST(Sweeps, FreeStreamingTranslatesBlob) {
  // Pure drift: each velocity slice translates by u * drift / dx cells.
  // Use a velocity grid whose cell centers give integer shifts for an
  // exact check.
  const int nx = 8, nu = 4;
  auto f = make_ps(nx, nu, /*box=*/8.0, /*umax=*/2.0);
  // u centers: -1.5, -0.5, 0.5, 1.5; drift = 2 -> shifts -3,-1,1,3 cells
  // along x with dx = 1.
  fill_blob(f);
  auto ref = f;
  advect_position_axis(f, 0, 2.0, SweepKernel::kAuto, AxisFaces{});
  const auto& d = f.dims();
  const auto& g = f.geom();
  for (int a = 0; a < nu; ++a) {
    const int shift = static_cast<int>(std::lround(g.ux(a) * 2.0 / g.dx));
    for (int ix = 0; ix < nx; ++ix) {
      const int src = ((ix - shift) % nx + nx) % nx;
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz)
          for (int b = 0; b < nu; ++b)
            for (int c = 0; c < nu; ++c)
              ASSERT_NEAR(f.at(ix, iy, iz, a, b, c),
                          ref.at(src, iy, iz, a, b, c), 1e-6)
                  << "a=" << a << " ix=" << ix;
    }
  }
}

TEST(Sweeps, VelocityKickShiftsMeanVelocity) {
  auto f = make_ps(4, 16, 8.0, 2.0);
  fill_blob(f);
  v6d::mesh::Grid3D<double> accel(4, 4, 4);
  accel.fill(0.25);
  MomentFields m0(4, 4, 4), m1(4, 4, 4);
  compute_moments(f, m0);
  advect_velocity_axis(f, 0, accel, 1.0, SweepKernel::kAuto);
  compute_moments(f, m1);
  // du = accel * dt = 0.25.
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(m1.mean_ux.at(i, 2, 2) - m0.mean_ux.at(i, 2, 2), 0.25, 5e-3);
  // Other components untouched.
  EXPECT_NEAR(m1.mean_uy.at(2, 2, 2), m0.mean_uy.at(2, 2, 2), 1e-4);
}

TEST(Sweeps, MaxShiftHelpers) {
  auto f = make_ps(8, 8, 8.0, 2.0);
  // umax_eff = 2 - du/2 = 1.75; dx = 1.
  EXPECT_NEAR(max_position_shift(f, 1.0), 1.75, 1e-12);
  EXPECT_NEAR(max_position_shift(f, 0.5), 0.875, 1e-12);
  v6d::mesh::Grid3D<double> gx(8, 8, 8), gy(8, 8, 8), gz(8, 8, 8);
  gx.fill(0.1);
  gy.fill(-0.3);
  gz.fill(0.2);
  // du = 0.5: max |xi| = 0.3 * dt / 0.5.
  EXPECT_NEAR(max_velocity_shift(f, gx, gy, gz, 2.0), 0.3 * 2.0 / 0.5,
              1e-12);
}

TEST(Splitting, FixedAccelStepRoundTripsWithReversedKicks) {
  // Kick(+dt/2) Drift(dt) Kick(+dt/2) followed by the exact inverse
  // sequence returns the initial state up to scheme diffusion; mass must
  // be identical and the field close.  Velocity cube wide enough (6.7
  // sigma) that boundary outflow is negligible.
  auto f = make_ps(6, 12, 8.0, 2.0);
  fill_blob(f);
  auto ref = f;
  v6d::mesh::Grid3D<double> gx(6, 6, 6), gy(6, 6, 6), gz(6, 6, 6);
  gx.fill(0.05);
  gy.fill(-0.05);
  gz.fill(0.02);
  const auto kernel = SweepKernel::kAuto;
  for (const double dt : {0.4, -0.4}) {
    kick_half(f, gx, gy, gz, dt / 2, kernel);
    drift_full(f, dt, kernel, periodic_halo_filler());
    kick_half(f, gx, gy, gz, dt / 2, kernel);
  }
  EXPECT_NEAR(f.total_mass(), ref.total_mass(), 1e-5 * ref.total_mass());
  double err = 0.0, norm = 0.0;
  const auto& d = f.dims();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* va = f.block(ix, iy, iz);
        const float* vb = ref.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v) {
          err += (va[v] - vb[v]) * (va[v] - vb[v]);
          norm += vb[v] * vb[v];
        }
      }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

// Test oracle: the faces a decomposed axis would receive if its neighbors
// were the brick's own periodic image, built cell by cell in the
// documented pack order (layer, lower transverse axis, upper transverse
// axis, velocity block): `lo` holds cells -3..-1, `hi` cells n..n+2.
AxisFaces periodic_image_faces(const PhaseSpace& f, int axis,
                               std::vector<float>& lo,
                               std::vector<float>& hi) {
  const auto& d = f.dims();
  const int n[3] = {d.nx, d.ny, d.nz};
  const int t1 = axis == 0 ? 1 : 0, t2 = axis == 2 ? 1 : 2;
  const auto wrap = [](int i, int len) { return ((i % len) + len) % len; };
  lo.clear();
  hi.clear();
  for (int layer = 0; layer < kStencilGhost; ++layer)
    for (int a = 0; a < n[t1]; ++a)
      for (int b = 0; b < n[t2]; ++b)
        for (const int cell : {layer - kStencilGhost, n[axis] + layer}) {
          int idx[3];
          idx[axis] = wrap(cell, n[axis]);
          idx[t1] = a;
          idx[t2] = b;
          const float* block = f.block(idx[0], idx[1], idx[2]);
          auto& face = cell < 0 ? lo : hi;
          face.insert(face.end(), block, block + f.block_size());
        }
  AxisFaces faces;
  faces.lo = lo.data();
  faces.hi = hi.data();
  return faces;
}

TEST(Splitting, PeriodicImageFacesMatchNullFaces) {
  // Null faces make each sweep read its lines' periodic image in place;
  // faces carrying the same image must leave the same interior, bit for
  // bit, for every kernel, extents below the ghost width, and a subcycled
  // drift.  This pins the order the sweep reads received faces in.
  const int shapes[][3] = {{8, 8, 8}, {16, 2, 2}, {5, 3, 7}, {1, 4, 2}};
  const int nu = 6;
  for (const auto& s : shapes) {
    PhaseSpaceDims d;
    d.nx = s[0];
    d.ny = s[1];
    d.nz = s[2];
    d.nux = d.nuy = d.nuz = nu;
    PhaseSpaceGeometry g;  // dx = 1, umax = 1: shift = factor * (1 - du/2)
    g.dux = g.duy = g.duz = 2.0 / nu;
    PhaseSpace f0(d, g);
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz)
          for (std::size_t v = 0; v < f0.block_size(); ++v)
            f0.block(ix, iy, iz)[v] = static_cast<float>(
                0.5 + 0.4 * std::sin(0.7 * ix + 1.3 * iy + 2.1 * iz +
                                     0.1 * static_cast<double>(v)));
    for (SweepKernel kernel : {SweepKernel::kScalar, SweepKernel::kSimd,
                               SweepKernel::kLat, SweepKernel::kAuto})
      for (double factor : {0.6, 2.7}) {  // 2.7: three subcycles
        PhaseSpace wrapped = f0, received = f0;
        std::vector<float> lo, hi;
        drift_full(wrapped, factor, kernel, periodic_halo_filler());
        drift_full(received, factor, kernel, [&](PhaseSpace& f, int axis) {
          return periodic_image_faces(f, axis, lo, hi);
        });
        ASSERT_EQ(std::memcmp(wrapped.raw(), received.raw(),
                              f0.raw_size() * sizeof(float)),
                  0)
            << d.nx << "x" << d.ny << "x" << d.nz << " kernel "
            << static_cast<int>(kernel) << " factor " << factor;
      }
  }
}

TEST(Sweeps, FacesRejectShiftsBeyondTheirDepth) {
  // A face holds kStencilGhost layers: a shift that needs more must be
  // subcycled, not read past the received buffer.
  auto f = make_ps(6, 4);
  std::vector<float> lo, hi;
  const AxisFaces faces = periodic_image_faces(f, 0, lo, hi);
  EXPECT_THROW(advect_position_axis(f, 0, 2.0 * f.geom().dx, SweepKernel::kAuto,
                                    faces),
               std::invalid_argument);
}

}  // namespace
