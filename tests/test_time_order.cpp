// Time-order gate: the global order in time of HybridSolver's step,
// measured by self-convergence.
//
// One interval of a smooth, warm, self-gravitating phase space with a few
// CDM particles in it is run in N, 2N and 4N steps, the N-step run at a
// drift CFL of 0.3 (tests/static_vlasov.hpp maps the static problem onto
// the comoving solver).  Each run ends synchronized, and for each
// observable X the differences of successive runs give the order
//   p = log2(|X_N - X_2N| / |X_2N - X_4N|),
// which reads 2 for a second-order step (the KDK split of paper Eq. 5).
// A step whose velocities lag their positions by a kick at the end — a
// synchronize() that skips the owed kick, or a step that drops a
// half-kick — is first order in the particle and neutrino velocities and
// reads about 1 there; the density, which depends on positions only, does
// not see the former, so the gate reads all three.
//
// Self-convergence cancels the phase-space discretization error only
// where that error does not depend on the step count.  An SL-MPP5 sweep's
// error is proportional to its shift to leading order, so the shifts of
// N steps add up to those of one interval; the next term, quadratic in
// the shift, is first order in dt and falls steeply with the resolution
// of the structure: free streaming over this interval moves the density
// with the step count by 1e-5 at 8 cells per wavelength, by float
// rounding (1e-7) at 16 and 32.  The problem is therefore quasi-1D: 32
// cells per wavelength along x, 4 cells per dispersion in ux, and uniform
// along y and z (two cells each, whose centers see no transverse force by
// symmetry; the particles sit on the lines between them).  On an 8^3 grid
// the quadratic term, not the time error, sets the differences, and the
// observables read 0.9 .. 1.4.  Stronger gravity (W = 8), a colder f
// (sigma / 2) or a longer run (N = 16 at W = 4) also brings the density
// and neutrino orders to about 1, as the collapse goes further, so the
// gate keeps to a mildly unstable, short interval.  The residuals and
// orders are written to time_order_gate.json in the working directory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "static_vlasov.hpp"
#include "vlasov/moments.hpp"

namespace {

using namespace v6d;
using namespace v6d::static_vlasov;

constexpr int kNx = 32;       // cells along x: one box = one wavelength
constexpr int kNux = 32;      // velocity cells along ux
constexpr double kBox = 4.0;  // static units
constexpr double kSigma = 0.5 * kLambda;  // warm: k sigma = 0.79
constexpr double kJeans = 2.0;  // W = 4 pi G rho_mean: Jeans-unstable
constexpr int kParticles = 8;
constexpr int kCoarseSteps = 8;
constexpr double kCoarseCfl = 0.3;  // drift shift bound of the N-step run
// The accepted orders, 2 +- 0.4.  The sweeps' error term quadratic in the
// per-sweep shift is first order in dt; at these steps it moves the
// apparent order by up to 0.3, the more the larger each kick's shift.
// Over W = 2 .. 4 and N = 8 .. 12 every observable reads 1.86 .. 2.30,
// whether a step applies its trailing half-kick or owes it to the next;
// a synchronize() that skips the owed kick, or a step that drops its
// trailing half-kick, reads 1.0 .. 1.25 on a velocity observable.
constexpr double kOrderLow = 1.6, kOrderHigh = 2.4;

/// A Maxwellian of dispersion kSigma over the smooth density
/// n = 1 + 0.2 cos(kx) + 0.1 sin(2kx), normalized to mean density W.
vlasov::PhaseSpace warm_phase_space() {
  vlasov::PhaseSpaceDims d;
  d.nx = kNx;
  d.ny = d.nz = 2;
  d.nux = kNux;
  d.nuy = d.nuz = 4;
  vlasov::PhaseSpaceGeometry g;
  g.dx = kBox / d.nx;
  g.dy = g.dz = kBox / d.ny;
  g.umax = 4.0 * kSigma;
  g.dux = 2.0 * g.umax / d.nux;
  g.duy = g.duz = 2.0 * g.umax / d.nuy;
  vlasov::PhaseSpace f(d, g);
  const double k = 2.0 * M_PI / kBox;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const double x = g.x(ix);
        const double n = 1.0 + 0.2 * std::cos(k * x) + 0.1 * std::sin(2 * k * x);
        float* blk = f.block(ix, iy, iz);
        std::size_t v = 0;
        for (int a = 0; a < d.nux; ++a)
          for (int b = 0; b < d.nuy; ++b)
            for (int c = 0; c < d.nuz; ++c, ++v) {
              const double u2 = g.ux(a) * g.ux(a) + g.uy(b) * g.uy(b) +
                                g.uz(c) * g.uz(c);
              blk[v] = static_cast<float>(
                  n * std::exp(-u2 / (2.0 * kSigma * kSigma)));
            }
      }
  normalize_jeans_source(f, kJeans);
  return f;
}

/// A few light CDM particles (1% of the neutrino mass) moving along x on
/// the lines y, z in {0, box / 2}, where every transverse force cancels.
nbody::Particles test_particles(double nu_mass) {
  nbody::Particles p(kParticles);
  Xoshiro256 rng(2718);
  for (int i = 0; i < kParticles; ++i) {
    p.x[i] = rng.next_double() * kBox;
    p.y[i] = (i % 2) * 0.5 * kBox;
    p.z[i] = (i / 2 % 2) * 0.5 * kBox;
    p.ux[i] = 0.2 * kSigma * (2.0 * rng.next_double() - 1.0);
    p.uy[i] = p.uz[i] = 0.0;
    p.id[i] = static_cast<std::uint64_t>(i);
  }
  p.mass = 0.01 * nu_mass / kParticles;
  return p;
}

struct Observables {
  std::vector<double> density;      // neutrino density per cell
  std::vector<double> nu_velocity;  // neutrino mean ux per cell
  std::vector<double> velocity;     // particle velocities
};

/// The interval run in `steps` equal steps of static time: scale factors
/// a(t0 + T s / steps), so the grids of N, 2N and 4N steps nest exactly.
Observables run(int steps) {
  auto f = warm_phase_space();
  const double span =
      kCoarseSteps * kCoarseCfl / vlasov::max_position_shift(f, 1.0);
  auto cdm = test_particles(f.total_mass());
  hybrid::HybridOptions options;
  options.pm_grid = kNx;
  options.enable_tree = false;  // PM forces only: smooth in position
  hybrid::HybridSolver solver(std::move(f), std::move(cdm), kBox,
                              background(), options);
  const cosmo::Background bg = background();
  const double t0 = bg.time_of(1.0);
  double a = 1.0;
  for (int s = 1; s <= steps; ++s) {
    const double a1 =
        bg.a_of_time(t0 + span * (static_cast<double>(s) / steps));
    solver.step(a, a1);
    a = a1;
  }
  solver.synchronize();

  Observables out;
  const auto& d = solver.neutrinos().dims();
  vlasov::MomentFields m(d.nx, d.ny, d.nz);
  vlasov::compute_moments(solver.neutrinos(), m);
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        out.density.push_back(m.density.at(i, j, k));
        out.nu_velocity.push_back(m.mean_ux.at(i, j, k));
      }
  const auto& p = solver.cdm();
  for (const auto* u : {&p.ux, &p.uy, &p.uz})
    out.velocity.insert(out.velocity.end(), u->begin(), u->end());
  return out;
}

/// Euclidean norm of u - v.
double distance(const std::vector<double>& u, const std::vector<double>& v) {
  double sum = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i)
    sum += (u[i] - v[i]) * (u[i] - v[i]);
  return std::sqrt(sum);
}

struct Order {
  const char* name;
  double coarse = 0.0, fine = 0.0;  // |X_N - X_2N|, |X_2N - X_4N|
  double order() const { return std::log2(coarse / fine); }
};

TEST(TimeOrder, KdkStepIsSecondOrder) {
  const Observables x1 = run(kCoarseSteps);
  const Observables x2 = run(2 * kCoarseSteps);
  const Observables x4 = run(4 * kCoarseSteps);
  const Order orders[] = {
      {"density", distance(x1.density, x2.density),
       distance(x2.density, x4.density)},
      {"nu_velocity", distance(x1.nu_velocity, x2.nu_velocity),
       distance(x2.nu_velocity, x4.nu_velocity)},
      {"particle_velocity", distance(x1.velocity, x2.velocity),
       distance(x2.velocity, x4.velocity)},
  };

  std::ofstream json("time_order_gate.json");
  json << "{\"steps\": [" << kCoarseSteps << ", " << 2 * kCoarseSteps << ", "
       << 4 * kCoarseSteps << "], \"band\": [" << kOrderLow << ", "
       << kOrderHigh << "], \"observables\": {";
  for (std::size_t i = 0; i < std::size(orders); ++i) {
    const Order& o = orders[i];
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"residuals\": [%.6e, %.6e], \"order\": %.4f}",
                  i ? ", " : "", o.name, o.coarse, o.fine, o.order());
    json << entry;
    std::printf("  %-18s |X_N - X_2N| = %.4e  |X_2N - X_4N| = %.4e  "
                "order %.3f\n",
                o.name, o.coarse, o.fine, o.order());
  }
  json << "}}\n";

  for (const Order& o : orders) {
    EXPECT_GT(o.order(), kOrderLow) << o.name;
    EXPECT_LT(o.order(), kOrderHigh) << o.name;
  }
}

}  // namespace
