// Static (non-cosmological) Vlasov-Poisson test problems on HybridSolver.
//
// HybridSolver works in comoving units: its Poisson prefactor on
// (Omega - mean) is 1.5 / a, and its kick and drift factors come from the
// background.  A static problem with 4 pi G rho_mean = W maps onto it
// near a = 1 in three steps:
//   * scale every velocity (sigma, umax, beam speed) by kLambda;
//   * normalize f so that its mean density Omega satisfies
//     1.5 Omega = W kLambda^2 (normalize_jeans_source);
//   * step over a time span kLambda times shorter (max_dt of the scaled f
//     already is, and time_grid turns it into scale factors).
// The Jeans rate sqrt(W) t and every position shift u t keep their static
// values.  With kLambda = 20 the runs stay within a in [1, 1.35], where
// 1.5 / a and the drift's 1 / a^2 vary slowly enough for the static
// bounds to hold.  Free-streaming references drift f alone
// (free_stream), with the same drift factors and no kick.
#pragma once

#include <vector>

#include "cosmology/background.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "vlasov/splitting.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::static_vlasov {

constexpr double kLambda = 20.0;

inline cosmo::Background background() {
  return cosmo::Background(cosmo::Params{});
}

/// Scale f so that its mean density is 2 W kLambda^2 / 3; returns it.
inline double normalize_jeans_source(vlasov::PhaseSpace& f, double w) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double volume = (d.nx * g.dx) * (d.ny * g.dy) * (d.nz * g.dz);
  const double mean = w * kLambda * kLambda / 1.5;
  const float scale = static_cast<float>(mean * volume / f.total_mass());
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v) blk[v] *= scale;
      }
  return mean;
}

/// HybridSolver over f alone (no particles), its PM mesh on f's x grid
/// over the cubic box nx * dx.
inline hybrid::HybridSolver vlasov_only_solver(vlasov::PhaseSpace f) {
  hybrid::HybridOptions options;
  options.pm_grid = f.dims().nx;
  const double box = f.dims().nx * f.geom().dx;
  return hybrid::HybridSolver(std::move(f), nbody::Particles(), box,
                              background(), options);
}

/// The CFL-limited step: the drift that brings the worst position sweep
/// to HybridSolver's default CFL bound.
inline double max_dt(const vlasov::PhaseSpace& f) {
  return hybrid::HybridOptions().cfl / vlasov::max_position_shift(f, 1.0);
}

/// Scale factors a(t(1) + s dt) for s = 0 .. steps: step s of a static
/// run of cosmic-time step dt goes from a[s] to a[s + 1].
inline std::vector<double> time_grid(double dt, int steps) {
  const cosmo::Background bg = background();
  const double t0 = bg.time_of(1.0);
  std::vector<double> a(steps + 1, 1.0);
  for (int s = 1; s <= steps; ++s) a[s] = bg.a_of_time(t0 + s * dt);
  return a;
}

/// One gravity-free step from a0 to a1: the drift alone.
inline void free_stream(vlasov::PhaseSpace& f, double a0, double a1) {
  vlasov::drift_full(f, background().drift_factor(a0, a1),
                     vlasov::SweepKernel::kAuto,
                     vlasov::periodic_halo_filler());
}

}  // namespace v6d::static_vlasov
