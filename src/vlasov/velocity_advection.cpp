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
//   ux, uy : multi-lane SIMD across the contiguous uz index;
//   uz     : the sweep axis *is* the contiguous one -> LAT (in-register
//            transpose).  kSimd on uz deliberately selects the slow
//            gather-style variant, reproducing the paper's "w/ SIMD inst."
//            column; kAuto selects LAT.
//
// Each axis stages a block once per panel, not once per lane group: ux
// pads the whole block as [nux+2g][nuy*nuz] (the block plus zero planes),
// uy and uz pad one ux-plane at a time as [nuy+2g][nuz] and, transposed,
// [nuz+2g][nuy].  Every full lane group of a panel runs from that copy
// straight into the block; the lanes past the last full group run the
// scalar kernel.
//
// Both entry points funnel into advect_block_axis, which updates one
// spatial cell's velocity block in place, on the process's sweep tier
// (simd/dispatch.hpp).  Blocks are independent, which is what makes the
// fused kick (advect_velocity_all) bit-identical to three sequential
// per-axis passes.

namespace {

/// Sweep one velocity block along `axis` by shift xi.  `kernel` must be
/// concrete (resolved, never kAuto).
inline void advect_block_axis(float* block, const PhaseSpaceDims& d,
                              int axis, double xi, SweepKernel kernel,
                              AdvectWorkspace& ws) {
  const bool vector = kernel != SweepKernel::kScalar;
  // Every lane group of the block shares xi: one flux setup serves them all.
  const LineShift shift = LineShift::uniform(xi, Limiter::kMpp);
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(d.nuy) * d.nuz;
  // Scalar lines [from, to) of a panel whose line l starts at
  // lines + l*line_stride, with cells cell_stride floats apart.
  const auto scalar_lines = [&](float* lines, std::ptrdiff_t cell_stride,
                                std::ptrdiff_t line_stride, int n, int from,
                                int to) {
    for (int l = from; l < to; ++l)
      advect_line_strided_scalar(lines + l * line_stride, cell_stride,
                                 lines + l * line_stride, cell_stride, n, xi,
                                 Limiter::kMpp, ws);
  };

  if (axis == 0) {
    // One panel: lines along iux (stride nuy*nuz), lanes over the whole
    // contiguous (iuy, iuz) plane.
    const int lanes = d.nuy * d.nuz;
    const int done =
        vector ? advect_lines_simd(block, plane, block, plane, d.nux, lanes,
                                   shift, ws)
               : 0;
    scalar_lines(block, plane, 1, d.nux, done, lanes);
    return;
  }
  for (int a = 0; a < d.nux; ++a) {
    float* panel = block + a * plane;
    if (axis == 1) {
      // Lines along iuy (stride nuz); lanes over contiguous iuz.
      const int done =
          vector ? advect_lines_simd(panel, d.nuz, panel, d.nuz, d.nuy,
                                     d.nuz, shift, ws)
                 : 0;
      scalar_lines(panel, d.nuz, 1, d.nuy, done, d.nuz);
      continue;
    }
    // Lines along the contiguous iuz axis, one per iuy (line stride nuz).
    int done = 0;
    if (kernel == SweepKernel::kSimd) {
      for (; done + kSweepLanes <= d.nuy; done += kSweepLanes) {
        float* lines0 = panel + done * d.nuz;
        advect_lines_lat_gather(lines0, d.nuz, lines0, d.nuz, d.nuz, shift,
                                ws);
      }
    } else if (vector) {
      done = advect_lines_lat(panel, d.nuz, panel, d.nuz, d.nuz, d.nuy,
                              shift, ws);
    }
    scalar_lines(panel, 1, d.nuz, d.nuz, done, d.nuy);
  }
}

using BlockAxisFn = void (*)(float*, const PhaseSpaceDims&, int, double,
                             SweepKernel, AdvectWorkspace&);

void block_axis_baseline(float* block, const PhaseSpaceDims& d, int axis,
                         double xi, SweepKernel kernel, AdvectWorkspace& ws) {
  advect_block_axis(block, d, axis, xi, kernel, ws);
}
V6D_SWEEP_TIER_AVX512 void block_axis_avx512(float* block,
                                             const PhaseSpaceDims& d,
                                             int axis, double xi,
                                             SweepKernel kernel,
                                             AdvectWorkspace& ws) {
  advect_block_axis(block, d, axis, xi, kernel, ws);
}

/// advect_block_axis compiled for the running sweep tier.
BlockAxisFn block_axis_for_tier() {
  return simd::for_sweep_tier<BlockAxisFn>(block_axis_baseline,
                                           block_axis_avx512);
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
