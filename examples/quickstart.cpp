// Quickstart: a self-gravitating 6-D Vlasov run in ~50 lines.
//
// Sets up a warm overdense blob in a periodic box and evolves it with the
// production solver, hybrid::HybridSolver, holding no particles: SL-MPP5
// sweeps in the paper's Eq. 5 splitting (SIMD/LAT kernels picked
// automatically), FFT self-gravity, and CFL-limited KDK steps on the
// comoving clock from a = 1.  Prints the invariants the scheme
// guarantees: exact mass conservation and positivity.
//
//   ./examples/quickstart [nx=8] [nu=10] [steps=10]
#include <cmath>
#include <cstdio>

#include "common/options.hpp"
#include "hybrid/hybrid_solver.hpp"

using namespace v6d;

int main(int argc, char** argv) {
  const CliArgs cli = parse_cli(argc, argv);
  if (cli.help) {
    std::printf("usage: quickstart [nx=8] [nu=10] [steps=10]\n");
    return 0;
  }
  const Options& opt = cli.options;
  const int nx = opt.get_int("nx", 8);
  const int nu = opt.get_int("nu", 10);
  const int steps = opt.get_int("steps", 10);

  // Phase space: nx^3 spatial cells x nu^3 velocity cells (code units:
  // h^-1 Mpc, 100 km/s).
  vlasov::PhaseSpaceDims dims;
  dims.nx = dims.ny = dims.nz = nx;
  dims.nux = dims.nuy = dims.nuz = nu;
  vlasov::PhaseSpaceGeometry geom;
  const double box = 4.0, sigma = 6.0;
  geom.dx = geom.dy = geom.dz = box / nx;
  geom.umax = 5.0 * sigma;
  geom.dux = geom.duy = geom.duz = 2.0 * geom.umax / nu;
  vlasov::PhaseSpace f(dims, geom);

  // f(x, u) = (1 + overdensity blob) * Maxwellian(sigma), scaled to a mean
  // comoving density Omega = 240 (the Poisson source is
  // 1.5 / a * (Omega - mean)).
  for (int ix = 0; ix < nx; ++ix)
    for (int iy = 0; iy < nx; ++iy)
      for (int iz = 0; iz < nx; ++iz) {
        const double rx = geom.x(ix) - 0.5 * box;
        const double ry = geom.y(iy) - 0.5 * box;
        const double rz = geom.z(iz) - 0.5 * box;
        const double n = 1.0 + 0.5 * std::exp(-(rx * rx + ry * ry + rz * rz));
        float* blk = f.block(ix, iy, iz);
        std::size_t v = 0;
        for (int a = 0; a < nu; ++a)
          for (int b = 0; b < nu; ++b)
            for (int c = 0; c < nu; ++c, ++v) {
              const double u2 = geom.ux(a) * geom.ux(a) +
                                geom.uy(b) * geom.uy(b) +
                                geom.uz(c) * geom.uz(c);
              blk[v] = static_cast<float>(
                  n * std::exp(-u2 / (2 * sigma * sigma)));
            }
      }
  const float scale =
      static_cast<float>(240.0 * box * box * box / f.total_mass());
  for (int ix = 0; ix < nx; ++ix)
    for (int iy = 0; iy < nx; ++iy)
      for (int iz = 0; iz < nx; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v) blk[v] *= scale;
      }

  hybrid::HybridOptions options;
  options.pm_grid = nx;  // the PM mesh is the Vlasov spatial grid
  options.cfl = 0.45;    // half the default position-sweep bound
  const cosmo::Background background{cosmo::Params{}};
  hybrid::HybridSolver solver(std::move(f), nbody::Particles(), box,
                              background, options);

  const double mass0 = solver.total_mass();
  std::printf("quickstart: %d^3 x %d^3 grid, %d steps\n", nx, nu, steps);
  std::printf("  initial mass: %.6e\n", mass0);

  double a = 1.0;
  for (int s = 0; s < steps; ++s) {
    const double a1 = solver.suggest_next_a(a, 1.0);
    solver.step(a, a1);
    a = a1;
    const double mass = solver.total_mass();
    std::printf("  step %2d  a=%.4f  mass drift=%+.2e  min(f)=%.2e\n", s + 1,
                a, (mass - mass0) / mass0,
                solver.neutrinos().min_interior());
  }
  // Each step leaves the velocities half a kick behind the positions; the
  // last half-kick brings f to a, as a run's output must be.
  solver.synchronize();
  const double mass = solver.total_mass();
  std::printf("  synchronized  a=%.4f  mass drift=%+.2e  min(f)=%.2e\n", a,
              (mass - mass0) / mass0, solver.neutrinos().min_interior());
  std::printf("done: mass conserved to float precision, f >= 0 throughout.\n");
  return 0;
}
