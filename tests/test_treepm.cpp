#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace {

using v6d::hybrid::HybridOptions;
using v6d::nbody::Particles;

Particles random_particles(std::size_t n, double box, std::uint64_t seed) {
  Particles p(n);
  v6d::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = rng.next_double() * box;
    p.y[i] = rng.next_double() * box;
    p.z[i] = rng.next_double() * box;
    p.id[i] = i;
  }
  p.mass = box * box * box / static_cast<double>(n);  // mean density 1
  return p;
}

struct Accelerations {
  std::vector<double> ax, ay, az;
};

/// Total TreePM accelerations with G = 1 from HybridSolver's force pass:
/// an empty phase space, a zero-length step(a, a) (zero kick, zero drift)
/// and the solver's force cache.  At a = 1.5 / (4 pi) the Poisson
/// prefactor 1.5 / a multiplying (rho - mean) is 4 pi G with G = 1.
Accelerations treepm_accelerations(const Particles& p, double box,
                                   const HybridOptions& options) {
  const v6d::cosmo::Background background{v6d::cosmo::Params{}};
  v6d::hybrid::HybridSolver solver(v6d::vlasov::PhaseSpace(), p, box,
                                   background, options);
  const double a = 1.5 / (4.0 * M_PI);
  solver.step(a, a);
  const auto& forces = solver.step_forces();
  return {forces.ax, forces.ay, forces.az};
}

TEST(TreePm, MomentumConservation) {
  // Total momentum change (sum m a) must vanish: PM forces on a periodic
  // mesh have no net force, tree forces are pairwise antisymmetric up to
  // the multipole acceptance tolerance.
  const double box = 1.0;
  auto p = random_particles(400, box, 31);
  HybridOptions opt;
  opt.pm_grid = 16;
  opt.treepm.theta = 0.4;
  opt.treepm.use_simd = false;
  const auto [ax, ay, az] = treepm_accelerations(p, box, opt);
  double px = 0.0, py = 0.0, pz = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    px += ax[i];
    py += ay[i];
    pz += az[i];
    scale += std::fabs(ax[i]) + std::fabs(ay[i]) + std::fabs(az[i]);
  }
  EXPECT_LT(std::fabs(px), 2e-2 * scale / p.size() * 10);
  EXPECT_LT(std::fabs(py), 2e-2 * scale / p.size() * 10);
  EXPECT_LT(std::fabs(pz), 2e-2 * scale / p.size() * 10);
}

TEST(TreePm, MatchesDirectEwaldLikeSumOnPair) {
  // Two particles far from others: the total TreePM force must be close
  // to the direct periodic force.  With separation << box the minimum
  // image 1/r^2 dominates the periodic correction.
  const double box = 10.0;
  Particles p(2);
  p.x = {4.0, 6.0};
  p.y = {5.0, 5.0};
  p.z = {5.0, 5.0};
  p.mass = 1.0;
  HybridOptions opt;
  opt.pm_grid = 32;
  opt.treepm.theta = 0.2;
  opt.treepm.use_simd = false;
  opt.treepm.eps_cells = 0.0;
  const auto [ax, ay, az] = treepm_accelerations(p, box, opt);
  const double r = 2.0;
  const double expected = 1.0 / (r * r);  // G m / r^2
  // Periodic images contribute at the ~ (r/box)^3 level; allow a few %.
  EXPECT_NEAR(ax[0], expected, 0.05 * expected);
  EXPECT_NEAR(ax[1], -expected, 0.05 * expected);
  EXPECT_NEAR(ay[0], 0.0, 0.02 * expected);
  EXPECT_NEAR(az[0], 0.0, 0.02 * expected);
}

TEST(TreePm, SplitIsInsensitiveToRs) {
  // The short+long split must reconstruct (nearly) the same total force
  // for different split scales — the defining property of TreePM.
  const double box = 1.0;
  auto p = random_particles(300, box, 77);
  std::vector<std::vector<double>> results;
  for (double rs_cells : {1.0, 1.5, 2.0}) {
    HybridOptions opt;
    opt.pm_grid = 32;
    opt.treepm.theta = 0.25;
    opt.treepm.rs_cells = rs_cells;
    opt.treepm.rcut_over_rs = 5.0;
    opt.treepm.use_simd = false;
    opt.treepm.eps_cells = 0.2;
    const auto [ax, ay, az] = treepm_accelerations(p, box, opt);
    std::vector<double> flat;
    flat.insert(flat.end(), ax.begin(), ax.end());
    flat.insert(flat.end(), ay.begin(), ay.end());
    flat.insert(flat.end(), az.begin(), az.end());
    results.push_back(std::move(flat));
  }
  double rms = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    rms += results[0][i] * results[0][i];
    const double d = results[0][i] - results[2][i];
    diff += d * d;
  }
  EXPECT_LT(std::sqrt(diff / rms), 0.05);
}

TEST(TreePm, UniformLatticeFeelsNoForce) {
  // Symmetric configuration: forces vanish up to discreteness tolerance.
  const double box = 1.0;
  const int n = 6;
  Particles p(static_cast<std::size_t>(n) * n * n);
  std::size_t idx = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++idx) {
        p.x[idx] = (i + 0.5) / n;
        p.y[idx] = (j + 0.5) / n;
        p.z[idx] = (k + 0.5) / n;
      }
  p.mass = 1.0 / p.size();
  HybridOptions opt;
  opt.pm_grid = 12;
  opt.treepm.theta = 0.3;
  opt.treepm.use_simd = false;
  opt.treepm.eps_cells = 0.1;
  const auto [ax, ay, az] = treepm_accelerations(p, box, opt);
  // Compare to the force between two adjacent particles as the scale.
  const double pair_scale = p.mass / std::pow(1.0 / n, 2);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_LT(std::fabs(ax[i]), 0.2 * pair_scale) << i;
    EXPECT_LT(std::fabs(ay[i]), 0.2 * pair_scale) << i;
    EXPECT_LT(std::fabs(az[i]), 0.2 * pair_scale) << i;
  }
}

}  // namespace
