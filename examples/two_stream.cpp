// Two-stream collisionless instability — the paper's §8 notes the same
// solver applies directly to plasma/kinetic problems; this example runs
// the classic counter-streaming configuration (here with gravitational
// coupling: the Jeans-type two-stream instability of self-gravitating
// beams).
//
// Two cold beams stream through each other along x; the seeded density
// mode grows exponentially, saturates, and winds up into the famous
// phase-space vortex — all captured without particle noise.
//
// The beams run on the production solver, hybrid::HybridSolver with no
// particles, which works in comoving units.  The static problem
// (4 pi G rho_mean = 4, beams at +-0.5) maps onto it near a = 1: every
// speed is scaled by lambda = 20, the mean density Omega satisfies
// 1.5 Omega = 4 lambda^2, and the steps are lambda times shorter (the CFL
// bound of the scaled speeds makes them so).  The registry's two_stream
// scenario pins the mean density to Omega_m instead, which keeps its
// beams Jeans-stable.
//
//   ./examples/two_stream [nx=16] [nu=16] [steps=40]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/options.hpp"
#include "diagnostics/vdf_probe.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "io/pgm.hpp"
#include "io/table_writer.hpp"

using namespace v6d;

int main(int argc, char** argv) {
  const CliArgs cli = parse_cli(argc, argv);
  if (cli.help) {
    std::printf("usage: two_stream [nx=16] [nu=16] [steps=40]\n");
    return 0;
  }
  const Options& opt = cli.options;
  const int nx = opt.get_int("nx", 16);
  const int nu = opt.get_int("nu", 16);
  const int steps = opt.get_int("steps", 40);

  const double box = 2.0 * M_PI;  // one unstable wavelength
  const double lambda = 20.0;
  const double u_beam = 0.5 * lambda, sigma = 0.08 * lambda, amp = 0.02;
  const double sigma_perp = 0.2 * lambda;

  vlasov::PhaseSpaceDims dims;
  dims.nx = nx;
  dims.ny = dims.nz = 2;  // quasi-1D: dynamics along x only
  dims.nux = nu;
  dims.nuy = dims.nuz = 4;
  vlasov::PhaseSpaceGeometry geom;
  geom.dx = box / nx;
  geom.dy = geom.dz = box / 2;
  geom.umax = 1.5 * lambda;
  geom.dux = 2.0 * geom.umax / nu;
  geom.duy = geom.duz = 2.0 * geom.umax / 4;
  vlasov::PhaseSpace f(dims, geom);

  for (int ix = 0; ix < dims.nx; ++ix)
    for (int iy = 0; iy < dims.ny; ++iy)
      for (int iz = 0; iz < dims.nz; ++iz) {
        const double n = 1.0 + amp * std::cos(2.0 * M_PI * geom.x(ix) / box);
        float* blk = f.block(ix, iy, iz);
        std::size_t v = 0;
        for (int a = 0; a < dims.nux; ++a)
          for (int b = 0; b < dims.nuy; ++b)
            for (int c = 0; c < dims.nuz; ++c, ++v) {
              const double up = geom.ux(a) - u_beam;
              const double um = geom.ux(a) + u_beam;
              const double perp = geom.uy(b) * geom.uy(b) +
                                  geom.uz(c) * geom.uz(c);
              const double beams =
                  std::exp(-up * up / (2 * sigma * sigma)) +
                  std::exp(-um * um / (2 * sigma * sigma));
              blk[v] = static_cast<float>(
                  n * beams * std::exp(-perp / (2 * sigma_perp * sigma_perp)));
            }
      }

  // Normalize the mean density so that the Jeans frequency is the static
  // problem's: omega_J^2 = 1.5 Omega = 4 lambda^2, against k u_beam =
  // 0.5 lambda, puts the k = 1 mode deep in the unstable band.
  const double mean = 4.0 * lambda * lambda / 1.5;
  {
    const double volume = (dims.nx * geom.dx) * (dims.ny * geom.dy) *
                          (dims.nz * geom.dz);
    const float scale = static_cast<float>(mean * volume / f.total_mass());
    for (int ix = 0; ix < dims.nx; ++ix)
      for (int iy = 0; iy < dims.ny; ++iy)
        for (int iz = 0; iz < dims.nz; ++iz) {
          float* blk = f.block(ix, iy, iz);
          for (std::size_t v = 0; v < f.block_size(); ++v) blk[v] *= scale;
        }
  }

  hybrid::HybridOptions options;
  // PM mesh at half the x resolution: the ny = nz = 2 cells deposit as
  // lines, whose k = 1 pull a finer mesh overstates (1.3x the sheets' on
  // an 8^3 mesh, 2.9x on 24^3), and the collapsed beams would then leave
  // the velocity grid instead of saturating.
  options.pm_grid = std::max(2, nx / 2);
  options.cfl = 0.36;  // 0.4 of the default position-sweep bound
  const cosmo::Background background{cosmo::Params{}};
  hybrid::HybridSolver solver(std::move(f), nbody::Particles(), box,
                              background, options);

  std::printf("two_stream: counter-streaming beams at +-%.2f, %d steps\n",
              u_beam, steps);
  std::printf("  %-6s %-10s %-14s %s\n", "step", "a", "mode amp",
              "growth/step");

  mesh::Grid3D<double> rho(dims.nx, dims.ny, dims.nz);
  double a = 1.0;
  double prev_amp = 0.0;
  for (int s = 0; s <= steps; ++s) {
    // Amplitude of the seeded k=1 density mode, relative to the mean.
    vlasov::compute_density(solver.neutrinos(), rho);
    double re = 0.0, im = 0.0;
    for (int ix = 0; ix < dims.nx; ++ix) {
      re += rho.at(ix, 0, 0) * std::cos(2.0 * M_PI * ix / nx);
      im += rho.at(ix, 0, 0) * std::sin(2.0 * M_PI * ix / nx);
    }
    const double mode = 2.0 * std::sqrt(re * re + im * im) / (nx * mean);
    if (s % 5 == 0)
      std::printf("  %-6d %-10.4f %-14.5e %s\n", s, a, mode,
                  prev_amp > 0
                      ? io::TableWriter::fmt(mode / prev_amp, 3).c_str()
                      : "-");
    prev_amp = mode;
    if (s < steps) {
      const double a1 = solver.suggest_next_a(a, 1.0);
      solver.step(a, a1);
      a = a1;
    }
  }

  // Phase-space (x, ux) portrait: the vortex structure at saturation,
  // with the last step's owed half-kick applied so ux is read at a.
  solver.synchronize();
  diag::Map2D portrait;
  portrait.nx = dims.nx;
  portrait.ny = dims.nux;
  portrait.values.assign(static_cast<std::size_t>(dims.nx) * dims.nux, 0.0);
  const auto& ps = solver.neutrinos();
  for (int ix = 0; ix < dims.nx; ++ix)
    for (int a = 0; a < dims.nux; ++a) {
      double acc = 0.0;
      for (int b = 0; b < dims.nuy; ++b)
        for (int c = 0; c < dims.nuz; ++c)
          acc += ps.at(ix, 0, 0, a, b, c);
      portrait.at(ix, a) = acc;
    }
  io::write_pgm("two_stream_phase_space.pgm", portrait);
  std::printf(
      "\n  phase-space (x, ux) portrait written to"
      " two_stream_phase_space.pgm\n"
      "  (growth then saturation of the seeded mode = the instability;\n"
      "   the PGM shows the characteristic phase-space winding.)\n");
  return 0;
}
