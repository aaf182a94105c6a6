#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "vlasov/brick.hpp"
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

// Bricks extracted at any split place back into a phase space of the same
// shape bit for bit, and only an exact tiling completes it.
TEST(Brick, ExtractedBricksPlaceBackBitForBit) {
  PhaseSpace global = make_ps(5, 2);
  global.geom().x0 = -3.0;
  for (std::size_t i = 0; i < global.raw_size(); ++i)
    global.raw()[i] = static_cast<float>(i) * 0.25f;
  PhaseSpace target = make_ps(5, 2);
  target.geom().x0 = -3.0;
  BrickPlacement placement(target);
  std::string why;
  for (const int x : {0, 2})
    for (const int y : {0, 3}) {
      const PhaseSpace brick =
          extract_brick(global, {x, y, 1}, {x == 0 ? 2 : 3, y == 0 ? 3 : 2, 4});
      EXPECT_DOUBLE_EQ(brick.geom().x0, -3.0 + x);
      EXPECT_DOUBLE_EQ(brick.geom().z0, 1.0);
      ASSERT_TRUE(placement.place(view(brick), &why)) << why;
    }
  EXPECT_FALSE(placement.complete(&why));  // the z = 0 layer is missing
  EXPECT_NE(why.find("do not cover"), std::string::npos);
  ASSERT_TRUE(placement.place(view(extract_brick(global, {0, 0, 0}, {5, 5, 1})),
                              &why))
      << why;
  EXPECT_TRUE(placement.complete(&why));
  EXPECT_EQ(std::memcmp(target.raw(), global.raw(),
                        global.raw_size() * sizeof(float)),
            0);
}

// A brick is refused whole, before any block is copied, when it overlaps
// a placed one or does not fit: another velocity grid, other cell sizes,
// an origin between cell corners, or cells past the grid's end.
TEST(Brick, PlacementRefusesMisfitsAndOverlapsWholesale) {
  PhaseSpace global = make_ps(4, 2);
  global.fill(1.0f);
  PhaseSpace target = make_ps(4, 2);
  BrickPlacement placement(target);
  std::string why;
  const PhaseSpace half = extract_brick(global, {0, 0, 0}, {2, 4, 4});
  ASSERT_TRUE(placement.place(view(half), &why)) << why;
  EXPECT_FALSE(placement.place(view(half), &why));
  EXPECT_NE(why.find("overlaps"), std::string::npos) << why;

  const auto refused = [&](BrickView brick, const char* because) {
    std::vector<float> before(target.raw(), target.raw() + target.raw_size());
    EXPECT_FALSE(placement.place(brick, &why)) << because;
    EXPECT_NE(why.find("does not fit"), std::string::npos) << why;
    EXPECT_EQ(std::memcmp(before.data(), target.raw(),
                          before.size() * sizeof(float)),
              0)
        << because;
  };
  const PhaseSpace rest = extract_brick(global, {2, 0, 0}, {2, 4, 4});
  BrickView brick = view(rest);
  brick.geom.dux *= 2.0;
  refused(brick, "velocity grid");
  brick = view(rest);
  brick.geom.dy *= 0.5;
  refused(brick, "cell sizes");
  brick = view(rest);
  brick.geom.x0 += 0.5;
  refused(brick, "origin between corners");
  brick = view(rest);
  brick.geom.x0 += 1.0;
  refused(brick, "past the end");
  EXPECT_TRUE(placement.place(view(rest), &why)) << why;
  EXPECT_TRUE(placement.complete(&why));
}

}  // namespace
