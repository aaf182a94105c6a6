#include <algorithm>
#include <cmath>

#include "vlasov/advect_vec_impl.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

// Velocity sweeps (paper Eq. 4): advection speed along velocity axis i is
// the acceleration -dphi/dx_i, constant over a spatial cell's whole
// velocity block — so every lane group shares one xi, all three axes
// vectorize cleanly, and no communication is ever needed (§5.1.3).
//
// Kernel choice per axis (paper Table 1, applied by simd::resolve_sweep_
// kernel):
//   ux, uy : multi-lane SIMD, lanes over velocity cells adjacent in
//            memory (ux: a whole (iuy, iuz) plane; uy: the iuz rows of
//            every iux plane, gathered);
//   uz     : the sweep axis *is* the contiguous one -> LAT (in-register
//            transpose).  kSimd on uz deliberately selects the slow
//            gather-style variant, reproducing the paper's "w/ SIMD inst."
//            column; kAuto selects LAT.
//
// Each axis stages a block once, as one panel whose lanes are every line
// of the block: ux pads the whole block as [nux+2g][nuy*nuz] (the block
// plus zero planes); uy gathers the block's nuz-float rows into
// [nuy+2g][nux*nuz] and scatters its results back; uz transposes all
// nux*nuy lines, 4x4 tiles at a time, into [nuz+2g][nux*nuy].  At nu = 12
// each panel is 144 lanes wide: whole 16-lane groups on the AVX-512 tier,
// where one 12-float row would hold none.  Every group of a panel runs from
// that copy; the lanes past the last 4-lane group run the scalar kernel.
//
// Both entry points funnel into advect_block_axis, which updates one
// spatial cell's velocity block in place, on the process's sweep tier at
// the tier's lane count (simd/dispatch.hpp).  Blocks are independent,
// which is what makes the fused kick (advect_velocity_all) bit-identical
// to three sequential per-axis passes.

namespace {

/// Sweep one velocity block along `axis` by shift xi, in L-lane groups.
/// `kernel` must be concrete (resolved, never kAuto).
template <int L>
inline void advect_block_axis(float* block, const PhaseSpaceDims& d,
                              int axis, double xi, SweepKernel kernel,
                              AdvectWorkspace& ws) {
  const bool vector = kernel != SweepKernel::kScalar;
  // Every lane group of the block shares xi: one flux setup serves them all.
  const LaneShift shift = LaneShift::at(xi, Limiter::kMpp);
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(d.nuy) * d.nuz;
  // The scalar kernel on one line of n cells, cell_stride floats apart.
  const auto scalar_line = [&](float* line, std::ptrdiff_t cell_stride,
                               int n) {
    advect_line_strided_scalar(line, cell_stride, line, cell_stride, n, xi,
                               Limiter::kMpp, ws);
  };

  if (axis == 0) {
    // Lines along iux (stride nuy*nuz), lanes over the contiguous
    // (iuy, iuz) plane.
    const int lanes = d.nuy * d.nuz;
    int done = vector ? advect_lines_simd<L>(block, plane, block, plane, d.nux,
                                             lanes, shift, ws)
                      : 0;
    for (; done < lanes; ++done) scalar_line(block + done, plane, d.nux);
    return;
  }
  if (axis == 1) {
    // Lines along iuy (stride nuz); lane a*nuz + c is the line at (iux a,
    // iuz c).
    const int lanes = d.nux * d.nuz;
    int done = 0;
    if (vector) {
      const int ghost = shift.shape.max_ghost;
      ws.ensure(d.nuy, ghost, lanes, lanes, L);
      float* in = ws.in.data();
      float* out = ws.out.data();
      detail::zero_panel_ghosts(in, lanes, d.nuy, ghost);
      for (int b = 0; b < d.nuy; ++b)
        for (int a = 0; a < d.nux; ++a)
          std::copy_n(block + a * plane + b * d.nuz, d.nuz,
                      in + (ghost + b) * lanes + a * d.nuz);
      done = detail::advect_staged_groups<L>(in, lanes, out, lanes, d.nuy,
                                             lanes, ghost, shift,
                                             ws.flux.data());
      for (int b = 0; b < d.nuy; ++b)
        for (int a = 0; a * d.nuz < done; ++a)
          std::copy_n(out + b * lanes + a * d.nuz,
                      std::min(d.nuz, done - a * d.nuz),
                      block + a * plane + b * d.nuz);
    }
    for (; done < lanes; ++done)
      scalar_line(block + (done / d.nuz) * plane + done % d.nuz, d.nuz,
                  d.nuy);
    return;
  }
  // Lines along the contiguous iuz axis: line l = a*nuy + b starts at
  // block + l*nuz.
  const int lines = d.nux * d.nuy;
  int done = 0;
  if (kernel == SweepKernel::kSimd) {
    for (; done + kSweepLanes <= lines; done += kSweepLanes) {
      float* lines0 = block + done * d.nuz;
      advect_lines_lat_gather(lines0, d.nuz, lines0, d.nuz, d.nuz, shift, ws);
    }
  } else if (vector) {
    done = advect_lines_lat<L>(block, d.nuz, block, d.nuz, d.nuz, lines,
                               shift, ws);
  }
  for (; done < lines; ++done) scalar_line(block + done * d.nuz, 1, d.nuz);
}

using BlockAxisFn = void (*)(float*, const PhaseSpaceDims&, int, double,
                             SweepKernel, AdvectWorkspace&);

void block_axis_baseline(float* block, const PhaseSpaceDims& d, int axis,
                         double xi, SweepKernel kernel, AdvectWorkspace& ws) {
  advect_block_axis<simd::sweep_lanes(simd::SweepTier::kBaseline)>(
      block, d, axis, xi, kernel, ws);
}
V6D_SWEEP_TIER_AVX512 void block_axis_avx512(float* block,
                                             const PhaseSpaceDims& d,
                                             int axis, double xi,
                                             SweepKernel kernel,
                                             AdvectWorkspace& ws) {
  advect_block_axis<simd::sweep_lanes(simd::SweepTier::kAvx512)>(
      block, d, axis, xi, kernel, ws);
}

/// advect_block_axis compiled for the running sweep tier.
BlockAxisFn block_axis_for_tier() {
  return simd::for_sweep_tier<BlockAxisFn>(
      simd::sweep_tier(), block_axis_baseline, block_axis_avx512);
}

}  // namespace

void advect_velocity_axis(PhaseSpace& f, int axis,
                          const mesh::Grid3D<double>& accel, double dt,
                          SweepKernel kernel) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double du = axis == 0 ? g.dux : axis == 1 ? g.duy : g.duz;
  const double dt_over_du = dt / du;
  const SweepKernel resolved =
      simd::resolve_sweep_kernel(kernel, /*contiguous_axis=*/axis == 2);
  const BlockAxisFn block_axis = block_axis_for_tier();

#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    AdvectWorkspace ws;
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
    for (int ix = 0; ix < d.nx; ++ix) {
      for (int iy = 0; iy < d.ny; ++iy) {
        for (int iz = 0; iz < d.nz; ++iz) {
          const double xi = accel.at(ix, iy, iz) * dt_over_du;
          if (xi == 0.0) continue;
          block_axis(f.block(ix, iy, iz), d, axis, xi, resolved, ws);
        }
      }
    }
  }
}

void advect_velocity_all(PhaseSpace& f, const mesh::Grid3D<double>& gx,
                         const mesh::Grid3D<double>& gy,
                         const mesh::Grid3D<double>& gz, double dt,
                         SweepKernel kernel) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double dt_du[3] = {dt / g.dux, dt / g.duy, dt / g.duz};
  SweepKernel resolved[3];
  for (int axis = 0; axis < 3; ++axis)
    resolved[axis] =
        simd::resolve_sweep_kernel(kernel, /*contiguous_axis=*/axis == 2);
  const BlockAxisFn block_axis = block_axis_for_tier();

  // Cache blocking: one spatial cell's velocity block (nux*nuy*nuz floats)
  // is the natural tile.  All three axis sweeps run on it back-to-back
  // while it is resident, so the kick reads/writes the 6-D array once
  // instead of three times.  Eq. (5) order (Dux, then Duy, then Duz) is
  // preserved within each block, and blocks do not couple.
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    AdvectWorkspace ws;
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(static)
#endif
    for (int ix = 0; ix < d.nx; ++ix) {
      for (int iy = 0; iy < d.ny; ++iy) {
        for (int iz = 0; iz < d.nz; ++iz) {
          float* block = f.block(ix, iy, iz);
          const double a_cell[3] = {gx.at(ix, iy, iz), gy.at(ix, iy, iz),
                                    gz.at(ix, iy, iz)};
          for (int axis = 0; axis < 3; ++axis) {
            const double xi = a_cell[axis] * dt_du[axis];
            if (xi == 0.0) continue;
            block_axis(block, d, axis, xi, resolved[axis], ws);
          }
        }
      }
    }
  }
}

double max_velocity_shift(const PhaseSpace& f,
                          const mesh::Grid3D<double>& gx,
                          const mesh::Grid3D<double>& gy,
                          const mesh::Grid3D<double>& gz, double dt) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  double worst = 0.0;
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        worst = std::max(worst,
                         std::fabs(gx.at(ix, iy, iz) * dt / g.dux));
        worst = std::max(worst,
                         std::fabs(gy.at(ix, iy, iz) * dt / g.duy));
        worst = std::max(worst,
                         std::fabs(gz.at(ix, iy, iz) * dt / g.duz));
      }
  return worst;
}

}  // namespace v6d::vlasov
