#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mesh/decomposition.hpp"
#include "mesh/deposit.hpp"
#include "mesh/grid.hpp"
#include "mesh/interp.hpp"

namespace {

using namespace v6d::mesh;

TEST(Grid3D, InteriorAndGhostIndexing) {
  Grid3D<double> g(4, 5, 6, 2);
  g.at(-2, -2, -2) = 1.0;
  g.at(5, 6, 7) = 2.0;
  g.at(0, 0, 0) = 3.0;
  EXPECT_DOUBLE_EQ(g.at(-2, -2, -2), 1.0);
  EXPECT_DOUBLE_EQ(g.at(5, 6, 7), 2.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0, 0), 3.0);
  EXPECT_EQ(g.interior_size(), 4u * 5u * 6u);
}

TEST(Grid3D, PeriodicGhostFill) {
  Grid3D<double> g(4, 4, 4, 2);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      for (int k = 0; k < 4; ++k) g.at(i, j, k) = i * 100 + j * 10 + k;
  g.fill_ghosts_periodic();
  EXPECT_DOUBLE_EQ(g.at(-1, 0, 0), g.at(3, 0, 0));
  EXPECT_DOUBLE_EQ(g.at(4, 1, 2), g.at(0, 1, 2));
  EXPECT_DOUBLE_EQ(g.at(-2, -1, 5), g.at(2, 3, 1));
}

TEST(Grid3D, FoldGhostsAccumulates) {
  Grid3D<double> g(4, 4, 4, 1);
  g.at(-1, 0, 0) = 2.0;   // image of (3, 0, 0)
  g.at(4, 0, 0) = 3.0;    // image of (0, 0, 0)
  g.at(0, 0, 0) = 1.0;
  g.fold_ghosts_periodic();
  EXPECT_DOUBLE_EQ(g.at(3, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.at(-1, 0, 0), 0.0);  // ghosts zeroed
}

TEST(BrickDecomposition, SharesCoverGlobal) {
  for (int global : {16, 17, 31}) {
    for (int parts : {1, 2, 3, 4, 5}) {
      int total = 0;
      int prev_end = 0;
      for (int c = 0; c < parts; ++c) {
        const int n = BrickDecomposition::share(global, parts, c);
        const int off = BrickDecomposition::share_offset(global, parts, c);
        EXPECT_EQ(off, prev_end);
        prev_end = off + n;
        total += n;
      }
      EXPECT_EQ(total, global);
    }
  }
}

TEST(BrickDecomposition, OwnerCoordInvertsOffsets) {
  const int global = 23, parts = 4;
  for (int g = 0; g < global; ++g) {
    const int c = BrickDecomposition::owner_coord(global, parts, g);
    const int off = BrickDecomposition::share_offset(global, parts, c);
    const int n = BrickDecomposition::share(global, parts, c);
    EXPECT_GE(g, off);
    EXPECT_LT(g, off + n);
  }
}

class DepositKernels : public ::testing::TestWithParam<Assignment> {};

TEST_P(DepositKernels, ConservesTotalMass) {
  const Assignment kind = GetParam();
  Grid3D<double> rho(8, 8, 8, 2);
  MeshPatch patch;
  patch.box = 10.0;
  patch.n_global = 8;
  std::vector<double> x{0.1, 3.7, 9.99, 5.0, 2.34},
      y{9.7, 0.01, 4.4, 5.0, 8.88}, z{1.0, 2.0, 3.0, 5.0, 0.0};
  deposit(rho, patch, x, y, z, 2.5, kind);
  rho.fold_ghosts_periodic();
  const double h = patch.h();
  EXPECT_NEAR(rho.sum_interior() * h * h * h, 2.5 * 5, 1e-10);
}

TEST_P(DepositKernels, UniformLatticeGivesUniformDensity) {
  const Assignment kind = GetParam();
  const int n = 8;
  Grid3D<double> rho(n, n, n, 2);
  MeshPatch patch;
  patch.box = 1.0;
  patch.n_global = n;
  std::vector<double> x, y, z;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        x.push_back((i + 0.5) / n);
        y.push_back((j + 0.5) / n);
        z.push_back((k + 0.5) / n);
      }
  deposit(rho, patch, x, y, z, 1.0, kind);
  rho.fold_ghosts_periodic();
  const double expected = static_cast<double>(x.size()) / 1.0;  // N/V
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k)
        ASSERT_NEAR(rho.at(i, j, k), expected, 1e-9 * expected);
}

TEST_P(DepositKernels, InterpolationIsPartitionOfUnity) {
  const Assignment kind = GetParam();
  const int n = 8;
  Grid3D<double> field(n, n, n, 2);
  field.fill(7.0);
  field.fill_ghosts_periodic();
  MeshPatch patch;
  patch.box = 4.0;
  patch.n_global = n;
  for (double x : {0.0, 0.2, 1.3, 3.99})
    for (double y : {0.1, 2.5})
      EXPECT_NEAR(interpolate(field, patch, x, y, 1.7, kind), 7.0, 1e-12);
}

TEST_P(DepositKernels, RejectsNonFinitePositions) {
  // A NaN/inf position used to reach a float->int cast (undefined
  // behaviour); it must surface as a diagnosable error instead.
  const Assignment kind = GetParam();
  Grid3D<double> rho(8, 8, 8, 2);
  MeshPatch patch;
  patch.box = 10.0;
  patch.n_global = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x{1.0, nan}, y{1.0, 1.0}, z{1.0, 1.0};
  EXPECT_THROW(deposit(rho, patch, x, y, z, 1.0, kind), std::domain_error);
  EXPECT_THROW(interpolate(rho, patch, inf, 0.0, 0.0, kind),
               std::domain_error);
}

TEST_P(DepositKernels, TinyNegativePositionWrapsIntoBox) {
  // -1e-18 cells wraps to n by floating rounding; the wrap must fold it
  // back into [0, n) so mass lands on the periodic image, not past it.
  const Assignment kind = GetParam();
  Grid3D<double> rho(8, 8, 8, 2);
  MeshPatch patch;
  patch.box = 10.0;
  patch.n_global = 8;
  std::vector<double> x{-1e-18}, y{5.0}, z{5.0};
  deposit(rho, patch, x, y, z, 1.0, kind);
  rho.fold_ghosts_periodic();
  const double h = patch.h();
  EXPECT_NEAR(rho.sum_interior() * h * h * h, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Kernels, DepositKernels,
                         ::testing::Values(Assignment::kNgp, Assignment::kCic,
                                           Assignment::kTsc));

TEST(Deposit, CicSplitsLinearly) {
  // A particle exactly halfway between two cell centers splits 50/50.
  const int n = 4;
  Grid3D<double> rho(n, n, n, 1);
  MeshPatch patch;
  patch.box = 4.0;
  patch.n_global = n;  // h = 1, centers at 0.5, 1.5, ...
  std::vector<double> x{1.0}, y{0.5}, z{0.5};
  deposit(rho, patch, x, y, z, 1.0, Assignment::kCic);
  rho.fold_ghosts_periodic();
  EXPECT_NEAR(rho.at(0, 0, 0), 0.5, 1e-12);
  EXPECT_NEAR(rho.at(1, 0, 0), 0.5, 1e-12);
}

TEST(Deposit, GatherMatchesDepositAdjoint) {
  // interpolate(deposit(delta_p)) at the deposit point equals the kernel's
  // self-overlap; more usefully, a linear field is reproduced exactly by
  // CIC interpolation (linear interpolation reproduces linears).
  const int n = 16;
  Grid3D<double> field(n, n, n, 2);
  MeshPatch patch;
  patch.box = 8.0;
  patch.n_global = n;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k)
        field.at(i, j, k) = 2.0 * (i + 0.5) - 0.5 * (j + 0.5) + (k + 0.5);
  field.fill_ghosts_periodic();
  // Stay away from the periodic wrap where linearity breaks.
  for (double x : {1.0, 2.3, 3.7})
    for (double y : {1.5, 2.8}) {
      const double h = patch.h();
      const double expected =
          2.0 * (x / h) - 0.5 * (y / h) + (2.0 / h);
      EXPECT_NEAR(
          interpolate(field, patch, x, y, 2.0, Assignment::kCic),
          expected, 1e-10);
    }
}

}  // namespace
