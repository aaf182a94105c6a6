// Table 1: per-direction Vlasov sweep performance, scalar ("w/o SIMD")
// vs multi-lane SIMD ("w/ SIMD inst.") vs LAT for the contiguous uz axis.
//
// The paper measures Gflops per CMG on A64FX for a (32^3, 64^3) box; here
// the same six sweeps run on a scaled-down box on the host CPU.  The
// expected *shape*: large SIMD speedups on the five non-contiguous axes,
// SIMD barely helping on uz (gather-bound, the paper's 17.9 Gflops entry),
// and LAT restoring uz to the level of the other velocity axes.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/timer.hpp"
#include "harness.hpp"
#include "mesh/grid.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/sweeps.hpp"

using namespace v6d;
using vlasov::SweepKernel;

namespace {

vlasov::PhaseSpace make_box(int nx, int nu) {
  vlasov::PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  vlasov::PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 1.0;
  g.umax = 1.0;
  g.dux = g.duy = g.duz = 2.0 / nu;
  vlasov::PhaseSpace f(d, g);
  // Non-trivial field so the limiter takes real branches.
  for (int ix = 0; ix < nx; ++ix)
    for (int iy = 0; iy < nx; ++iy)
      for (int iz = 0; iz < nx; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = 0.5f + 0.4f * static_cast<float>(
                              std::sin(0.1 * static_cast<double>(v + ix)));
      }
  return f;
}

double time_position_sweep(vlasov::PhaseSpace& f, int axis,
                           SweepKernel kernel, int reps) {
  Stopwatch w;
  for (int r = 0; r < reps; ++r)
    advect_position_axis(f, axis, 0.35 * f.geom().dx / f.geom().umax, kernel,
                         vlasov::AxisFaces{});
  return w.seconds() / reps;
}

double time_velocity_sweep(vlasov::PhaseSpace& f,
                           const mesh::Grid3D<double>& accel, int axis,
                           SweepKernel kernel, int reps) {
  Stopwatch w;
  for (int r = 0; r < reps; ++r)
    advect_velocity_axis(f, axis, accel, 1.0, kernel);
  return w.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("table1_simd_kernels", argc, argv);
  auto& opt = harness.options();
  harness.banner("Table 1 - SIMD & LAT advection kernels",
                 "paper Table 1 (Gflops per CMG, directions ux..z)");

  const int nx = opt.get_int("nx", bench::scaled(8, 4));
  const int nu = opt.get_int("nu", bench::scaled(16, 8));
  const int reps = opt.get_int("reps", bench::scaled(3, 1));
  harness.context("nx", std::to_string(nx));
  harness.context("nu", std::to_string(nu));
  auto isa = simd::isa_info();
  std::printf("  host ISA: %s (%d fp32 lanes)   box: Nx=%d^3 Nu=%d^3\n\n",
              isa.name.c_str(), isa.float_width, nx, nu);

  auto f = make_box(nx, nu);
  mesh::Grid3D<double> accel(nx, nx, nx);
  accel.fill(0.11);

  const double cells = static_cast<double>(f.dims().total_interior());
  const double flops = cells * vlasov::kFlopsPerCellMpp;

  io::TableWriter table({"direction", "w/o SIMD [Gflops]", "w/ SIMD [Gflops]",
                         "w/ LAT [Gflops]", "SIMD speedup", "LAT speedup"});

  struct Row {
    const char* name;
    bool velocity;
    int axis;
    bool lat_applicable;
  };
  // Paper order: ux, uy, uz, then x, y, z.
  const Row rows[] = {{"ux", true, 0, false}, {"uy", true, 1, false},
                      {"uz", true, 2, true},  {"x", false, 0, false},
                      {"y", false, 1, false}, {"z", false, 2, false}};

  for (const Row& row : rows) {
    auto timed = [&](SweepKernel k) {
      return row.velocity ? time_velocity_sweep(f, accel, row.axis, k, reps)
                          : time_position_sweep(f, row.axis, k, reps);
    };
    const double t_scalar = timed(SweepKernel::kScalar);
    const double t_simd = timed(SweepKernel::kSimd);
    const double gf_scalar = flops / t_scalar / 1e9;
    const double gf_simd = flops / t_simd / 1e9;
    const std::string dir(row.name);
    harness.add_phase("sweep_" + dir + "_scalar", t_scalar, 1, cells);
    harness.add_phase("sweep_" + dir + "_simd", t_simd, 1, cells);
    harness.metric("simd_speedup_" + dir, t_scalar / t_simd, "x");
    double gf_lat = 0.0;
    std::string lat_text = "-";
    std::string lat_speedup = "-";
    if (row.lat_applicable) {
      const double t_lat = timed(SweepKernel::kLat);
      gf_lat = flops / t_lat / 1e9;
      lat_text = io::TableWriter::fmt(gf_lat, 3);
      lat_speedup = io::TableWriter::fmt(t_scalar / t_lat, 2) + "x";
      harness.add_phase("sweep_" + dir + "_lat", t_lat, 1, cells);
      harness.metric("lat_speedup_" + dir, t_scalar / t_lat, "x");
    }
    table.row({row.name, io::TableWriter::fmt(gf_scalar, 3),
               io::TableWriter::fmt(gf_simd, 3), lat_text,
               io::TableWriter::fmt(t_scalar / t_simd, 2) + "x",
               lat_speedup});
  }
  table.print();

  std::printf(
      "\n  paper reference (A64FX per CMG): ux 4.84->176.7, uy 7.14->233.3,\n"
      "  uz 7.44->17.9 (SIMD) ->224.2 (LAT), x 5.51->150.0, y 6.88->154.1,\n"
      "  z 6.50->149.2 Gflops.  Expected shape: SIMD >> scalar everywhere\n"
      "  except uz, where only LAT recovers the full rate.\n");
  return 0;
}
