#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cosmology/neutrino_ic.hpp"
#include "cosmology/zeldovich.hpp"
#include "hybrid/nbody_solver.hpp"

namespace {

using namespace v6d;
using namespace v6d::nbody;
using hybrid::NBodySolver;

TEST(Particles, WrapPositionsIntoBox) {
  Particles p(3);
  p.x = {-0.5, 10.5, 3.0};
  p.y = {0.0, -20.0, 5.0};
  p.z = {9.999, 10.0, -0.001};
  p.wrap_positions(10.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(p.x[i], 0.0);
    EXPECT_LT(p.x[i], 10.0);
    EXPECT_GE(p.y[i], 0.0);
    EXPECT_LT(p.y[i], 10.0);
    EXPECT_GE(p.z[i], 0.0);
    EXPECT_LT(p.z[i], 10.0);
  }
  EXPECT_DOUBLE_EQ(p.x[0], 9.5);
  EXPECT_DOUBLE_EQ(p.x[1], 0.5);
}

TEST(Integrator, KickAndDriftAreExactlyLinear) {
  Particles p(2);
  p.x = {1.0, 2.0};
  p.y = {1.0, 2.0};
  p.z = {1.0, 2.0};
  p.ux = {0.5, -0.5};
  p.uy = {0.0, 0.0};
  p.uz = {1.0, 1.0};
  std::vector<double> ax{1.0, 2.0}, ay{0.0, 0.0}, az{-1.0, 0.5};
  kick(p, ax, ay, az, 0.1);
  EXPECT_DOUBLE_EQ(p.ux[0], 0.6);
  EXPECT_DOUBLE_EQ(p.uz[1], 1.05);
  drift(p, 2.0, 100.0);
  EXPECT_DOUBLE_EQ(p.x[0], 1.0 + 2.0 * 0.6);
}

TEST(Integrator, KineticEnergy) {
  Particles p(2);
  p.mass = 2.0;
  p.ux = {1.0, 0.0};
  p.uy = {0.0, 2.0};
  p.uz = {0.0, 0.0};
  p.x = p.y = p.z = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(kinetic_energy(p), 0.5 * 2.0 * (1.0 + 4.0));
}

TEST(NBodySolver, LinearGrowthMatchesTheory) {
  // Evolve Zel'dovich ICs over a modest interval; the density contrast of
  // a long-wavelength mode must grow by ~ D(a1)/D(a0).
  cosmo::Params params = cosmo::Params::planck2015(0.0);
  cosmo::PowerSpectrum ps(params);
  cosmo::Background bg(params);
  const double box = 250.0;

  cosmo::ZeldovichOptions zopt;
  zopt.particles_per_side = 16;
  zopt.a_init = 0.1;
  zopt.seed = 4;
  auto ics = cosmo::zeldovich_ics(ps, box, zopt);

  hybrid::HybridOptions opt;
  opt.pm_grid = 16;
  opt.treepm.theta = 0.6;
  opt.treepm.eps_cells = 0.2;
  NBodySolver solver(box, bg, opt);
  solver.set_cdm(std::move(ics.particles));

  auto rms_contrast = [&](const Particles& p) {
    mesh::Grid3D<double> rho(16, 16, 16, 2);
    mesh::MeshPatch patch;
    patch.box = box;
    patch.n_global = 16;
    mesh::deposit(rho, patch, p.x, p.y, p.z, p.mass, mesh::Assignment::kCic);
    rho.fold_ghosts_periodic();
    const double mean = rho.sum_interior() / rho.interior_size();
    double acc = 0.0;
    for (int i = 0; i < 16; ++i)
      for (int j = 0; j < 16; ++j)
        for (int k = 0; k < 16; ++k) {
          const double d = rho.at(i, j, k) / mean - 1.0;
          acc += d * d;
        }
    return std::sqrt(acc / (16.0 * 16.0 * 16.0));
  };

  const double c0 = rms_contrast(solver.cdm());
  const double a_end = 0.2;
  double a = 0.1;
  const int steps = 8;
  for (int s = 0; s < steps; ++s) {
    const double a1 = 0.1 + (a_end - 0.1) * (s + 1) / steps;
    solver.step(a, a1);
    a = a1;
  }
  const double c1 = rms_contrast(solver.cdm());
  const double expected_growth =
      bg.growth_factor(a_end) / bg.growth_factor(0.1);
  EXPECT_NEAR(c1 / c0, expected_growth, 0.25 * expected_growth);
}

TEST(NBodySolver, MomentumStaysNearZero) {
  cosmo::Params params = cosmo::Params::planck2015(0.0);
  cosmo::PowerSpectrum ps(params);
  cosmo::Background bg(params);
  const double box = 100.0;
  cosmo::ZeldovichOptions zopt;
  zopt.particles_per_side = 8;
  zopt.a_init = 0.2;
  auto ics = cosmo::zeldovich_ics(ps, box, zopt);

  hybrid::HybridOptions opt;
  opt.pm_grid = 8;
  NBodySolver solver(box, bg, opt);
  solver.set_cdm(std::move(ics.particles));
  solver.step(0.2, 0.25);
  solver.step(0.25, 0.3);
  solver.synchronize();

  const auto& p = solver.cdm();
  double px = 0.0, pn = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    px += p.ux[i];
    pn += std::fabs(p.ux[i]);
  }
  EXPECT_LT(std::fabs(px), 0.05 * pn + 1e-12);
}

TEST(NBodySolver, HotSpeciesFeelsGravityAndKeepsThermalSpread) {
  cosmo::Params params = cosmo::Params::planck2015(0.4);
  cosmo::PowerSpectrum ps(params);
  cosmo::Background bg(params);
  const double box = 100.0;
  cosmo::ZeldovichOptions zopt;
  zopt.particles_per_side = 8;
  zopt.a_init = 0.2;
  auto ics = cosmo::zeldovich_ics(ps, box, zopt);

  const double u_th =
      cosmo::neutrino_thermal_velocity(params.m_nu_total_ev / 3.0);
  cosmo::NeutrinoIcOptions nopt;
  nopt.a_init = 0.2;
  auto nu = cosmo::sample_neutrino_particles(ps, box, 8, u_th, nopt);

  hybrid::HybridOptions opt;
  opt.pm_grid = 8;
  NBodySolver solver(box, bg, opt);
  solver.set_cdm(std::move(ics.particles));
  solver.set_hot(std::move(nu));
  solver.step(0.2, 0.24);
  solver.synchronize();

  double rms = 0.0;
  const auto& hot = *solver.hot();
  for (std::size_t i = 0; i < hot.size(); ++i)
    rms += hot.ux[i] * hot.ux[i] + hot.uy[i] * hot.uy[i] +
           hot.uz[i] * hot.uz[i];
  rms = std::sqrt(rms / static_cast<double>(hot.size()));
  // Canonical thermal velocities are frozen; gravity adds only a little.
  EXPECT_GT(rms, 2.0 * u_th);
  EXPECT_LT(rms, 6.0 * u_th);
}

TEST(NBodySolver, SharesHybridSolverForcePass) {
  // The particle baseline runs the production solver's force pass and
  // its leapfrog (hybrid/leapfrog.hpp): with no hot species it must step
  // CDM exactly like a HybridSolver with an empty phase space, bit for
  // bit, the owed half-kick and its settling included.
  cosmo::Params params = cosmo::Params::planck2015(0.0);
  cosmo::PowerSpectrum ps(params);
  cosmo::Background bg(params);
  const double box = 100.0;
  cosmo::ZeldovichOptions zopt;
  zopt.particles_per_side = 10;
  zopt.a_init = 0.2;
  zopt.seed = 12;
  auto ics = cosmo::zeldovich_ics(ps, box, zopt);

  hybrid::HybridOptions opt;
  opt.pm_grid = 8;
  opt.treepm.eps_cells = 0.2;
  NBodySolver nbody(box, bg, opt);
  nbody.set_cdm(ics.particles);
  hybrid::HybridSolver hybrid(vlasov::PhaseSpace(), ics.particles, box, bg,
                              opt);
  double a = 0.2;
  for (int s = 0; s < 3; ++s) {
    nbody.step(a, a + 0.05);
    hybrid.step(a, a + 0.05);
    a += 0.05;
  }
  nbody.synchronize();
  hybrid.synchronize();

  auto same = [](const std::vector<double>& u, const std::vector<double>& v) {
    return u.size() == v.size() &&
           std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0;
  };
  const Particles& p = nbody.cdm();
  const Particles& q = hybrid.cdm();
  EXPECT_TRUE(same(p.x, q.x));
  EXPECT_TRUE(same(p.y, q.y));
  EXPECT_TRUE(same(p.z, q.z));
  EXPECT_TRUE(same(p.ux, q.ux));
  EXPECT_TRUE(same(p.uy, q.uy));
  EXPECT_TRUE(same(p.uz, q.uz));
}

}  // namespace
