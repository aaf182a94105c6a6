#include <gtest/gtest.h>

#include <cmath>

#include "vlasov/phase_space.hpp"

namespace {

using namespace v6d::vlasov;

PhaseSpace make_ps(int nx, int nu) {
  PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 1.0;
  g.umax = 1.0;
  g.dux = g.duy = g.duz = 2.0 / nu;
  return PhaseSpace(d, g);
}

TEST(PhaseSpace, GeometryCellCenters) {
  PhaseSpaceGeometry g;
  g.x0 = 10.0;
  g.dx = 2.0;
  g.umax = 4.0;
  g.dux = 1.0;
  EXPECT_DOUBLE_EQ(g.x(0), 11.0);
  EXPECT_DOUBLE_EQ(g.x(3), 17.0);
  EXPECT_DOUBLE_EQ(g.ux(0), -3.5);
  EXPECT_DOUBLE_EQ(g.ux(7), 3.5);
}

TEST(PhaseSpace, BlockLayoutMatchesListOne) {
  // Velocity block of a spatial cell must be contiguous with uz innermost
  // (the paper's List 1 layout that the LAT method depends on).
  auto f = make_ps(4, 6);
  float* b = f.block(1, 2, 3);
  EXPECT_EQ(&f.at(1, 2, 3, 0, 0, 1) - b, 1);
  EXPECT_EQ(&f.at(1, 2, 3, 0, 1, 0) - b, 6);
  EXPECT_EQ(&f.at(1, 2, 3, 1, 0, 0) - b, 36);
}

TEST(PhaseSpace, SpatialStridesInBlocks) {
  auto f = make_ps(4, 4);
  const auto bs = static_cast<std::ptrdiff_t>(f.block_size());
  EXPECT_EQ(f.block(0, 0, 1) - f.block(0, 0, 0), bs * 1);
  EXPECT_EQ(f.block(0, 1, 0) - f.block(0, 0, 0),
            bs * static_cast<std::ptrdiff_t>(f.block_stride_y()));
  EXPECT_EQ(f.block(1, 0, 0) - f.block(0, 0, 0),
            bs * static_cast<std::ptrdiff_t>(f.block_stride_x()));
}

TEST(PhaseSpace, TotalMassIntegratesPhaseSpaceVolume) {
  auto f = make_ps(3, 4);
  f.fill(0.0f);
  // One phase-space cell with f = 2.0.
  f.at(1, 1, 1, 2, 2, 2) = 2.0f;
  const double expected = 2.0 * f.geom().du3() * f.geom().dvol();
  EXPECT_NEAR(f.total_mass(), expected, 1e-12);
}

TEST(PhaseSpace, StoresInteriorOnly) {
  // No ghost shell: the storage is the interior blocks, the last cell's
  // block ends it, and min_interior() scans all of it.
  PhaseSpaceDims d;
  d.nx = 4;
  d.ny = 2;
  d.nz = 1;
  d.nux = d.nuy = d.nuz = 3;
  PhaseSpace f(d, PhaseSpaceGeometry{});
  EXPECT_EQ(f.raw_size(), f.dims().total_interior());
  EXPECT_EQ(f.block(0, 0, 0), f.raw());
  EXPECT_EQ(f.block(d.nx - 1, d.ny - 1, d.nz - 1) + f.block_size(),
            f.raw() + f.raw_size());
  f.fill(1.0f);
  EXPECT_FLOAT_EQ(f.min_interior(), 1.0f);
  f.at(d.nx - 1, d.ny - 1, d.nz - 1, 2, 2, 2) = -0.5f;
  EXPECT_FLOAT_EQ(f.min_interior(), -0.5f);
}

TEST(PhaseSpace, DimsHelpers) {
  PhaseSpaceDims d;
  d.nx = 2;
  d.ny = 3;
  d.nz = 4;
  d.nux = 5;
  d.nuy = 6;
  d.nuz = 7;
  EXPECT_EQ(d.spatial_cells(), 24u);
  EXPECT_EQ(d.velocity_cells(), 210u);
  EXPECT_EQ(d.total_interior(), 24u * 210u);
}

}  // namespace
