// Vlasov-Poisson physics on the production solver: HybridSolver with no
// particles, each static problem mapped onto comoving units as
// tests/static_vlasov.hpp describes.
#include <gtest/gtest.h>

#include <cmath>

#include "static_vlasov.hpp"

namespace {

using namespace v6d::vlasov;
using namespace v6d::static_vlasov;

PhaseSpace make_ps(int nx, int nu, double box, double umax) {
  PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = box / nx;
  g.umax = umax;
  g.dux = g.duy = g.duz = 2.0 * umax / nu;
  return PhaseSpace(d, g);
}

void fill_jeans_perturbation(PhaseSpace& f, double box, double sigma,
                             double amplitude) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const double n =
            1.0 + amplitude * std::cos(2.0 * M_PI * g.x(ix) / box);
        float* blk = f.block(ix, iy, iz);
        std::size_t v = 0;
        double sum = 0.0;
        std::vector<double> w(f.block_size());
        for (int a = 0; a < d.nux; ++a)
          for (int b = 0; b < d.nuy; ++b)
            for (int c = 0; c < d.nuz; ++c, ++v) {
              const double u2 = g.ux(a) * g.ux(a) + g.uy(b) * g.uy(b) +
                                g.uz(c) * g.uz(c);
              w[v] = std::exp(-u2 / (2.0 * sigma * sigma));
              sum += w[v];
            }
        for (v = 0; v < f.block_size(); ++v)
          blk[v] = static_cast<float>(n * w[v] / (sum * g.du3()));
      }
}

TEST(VlasovPoisson, MassConservedOverManySteps) {
  auto f = make_ps(8, 8, 4.0, kLambda * 1.0);
  fill_jeans_perturbation(f, 4.0, kLambda * 0.3, 0.05);
  normalize_jeans_source(f, 1.0);
  auto solver = vlasov_only_solver(std::move(f));
  const double mass0 = solver.neutrinos().total_mass();
  const auto a = time_grid(0.5 * max_dt(solver.neutrinos()), 5);
  for (int s = 0; s < 5; ++s) solver.step(a[s], a[s + 1]);
  EXPECT_NEAR(solver.neutrinos().total_mass(), mass0, 1e-4 * mass0);
  EXPECT_GE(solver.neutrinos().min_interior(), 0.0f);
}

TEST(VlasovPoisson, StablePlasmaOscillationConservesEnergyScale) {
  // A warm stable configuration: density stays bounded and positive.
  auto f = make_ps(8, 10, 4.0, kLambda * 1.5);
  fill_jeans_perturbation(f, 4.0, kLambda * 0.5, 0.1);
  const double mean = normalize_jeans_source(f, 0.5);
  auto solver = vlasov_only_solver(std::move(f));
  const auto a = time_grid(0.4 * max_dt(solver.neutrinos()), 8);
  double max_rho = 0.0;
  for (int s = 0; s < 8; ++s) {
    solver.step(a[s], a[s + 1]);
    for (int i = 0; i < 8; ++i)
      max_rho = std::max(max_rho, solver.nu_density().at(i, 0, 0) / mean);
  }
  EXPECT_LT(max_rho, 3.0);  // no blow-up
}

TEST(VlasovPoisson, JeansInstabilityGrowsOverdensity) {
  // Cold-ish distribution with strong gravity: the seeded mode must grow
  // (gravitational instability), unlike the free-streaming case.
  auto f_grav = make_ps(8, 10, 4.0, kLambda * 0.8);
  fill_jeans_perturbation(f_grav, 4.0, kLambda * 0.08, 0.05);
  normalize_jeans_source(f_grav, 8.0);  // deep in the unstable regime
  PhaseSpace free_stream_f = f_grav;
  auto grav = vlasov_only_solver(std::move(f_grav));

  auto contrast = [](const PhaseSpace& f) {
    v6d::mesh::Grid3D<double> rho(8, 8, 8);
    compute_density(f, rho);
    double lo = 1e30, hi = -1e30;
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          lo = std::min(lo, rho.at(i, j, k));
          hi = std::max(hi, rho.at(i, j, k));
        }
    return (hi - lo) / (hi + lo);
  };

  const double c0 = contrast(grav.neutrinos());
  const auto a = time_grid(0.3 * max_dt(grav.neutrinos()), 10);
  for (int s = 0; s < 10; ++s) {
    grav.step(a[s], a[s + 1]);
    free_stream(free_stream_f, a[s], a[s + 1]);
  }
  EXPECT_GT(contrast(grav.neutrinos()), 1.5 * c0);  // gravity amplifies
  EXPECT_LT(contrast(free_stream_f), 1.2 * c0);  // free streaming damps/keeps
}

TEST(VlasovPoisson, MaxDtScalesWithGrid) {
  auto s1 = vlasov_only_solver(make_ps(8, 8, 4.0, 1.0));
  auto s2 = vlasov_only_solver(make_ps(16, 8, 4.0, 1.0));
  // Halving dx halves the CFL-limited dt.
  EXPECT_NEAR(max_dt(s1.neutrinos()) / max_dt(s2.neutrinos()), 2.0, 1e-9);
}

}  // namespace
