#include <algorithm>
#include <cmath>

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
// Both entry points funnel into advect_block_axis, which updates one
// spatial cell's velocity block in place.  Blocks are independent, which
// is what makes the fused kick (advect_velocity_all) bit-identical to
// three sequential per-axis passes.

namespace {

/// Sweep one velocity block along `axis` by shift xi.  `kernel` must be
/// concrete (resolved, never kAuto).
void advect_block_axis(float* block, const PhaseSpace& f, int axis,
                       double xi, SweepKernel kernel, AdvectWorkspace& ws) {
  const auto& d = f.dims();
  const int n = axis == 0 ? d.nux : axis == 1 ? d.nuy : d.nuz;
  const bool vector = kernel != SweepKernel::kScalar;
  // Every lane group of the block shares xi: one flux setup serves them all.
  const LineShift shift = LineShift::uniform(xi, Limiter::kMpp);

  if (axis == 0) {
    // Lines along iux, stride nuy*nuz; lanes over contiguous iuz.
    const std::ptrdiff_t stride = static_cast<std::ptrdiff_t>(d.nuy) * d.nuz;
    for (int b = 0; b < d.nuy; ++b) {
      int c = 0;
      for (; vector && c + kLanes <= d.nuz; c += kLanes)
        advect_lines_simd(block + f.velocity_index(0, b, c), stride,
                          block + f.velocity_index(0, b, c), stride, n, shift,
                          ws);
      for (; c < d.nuz; ++c)
        advect_line_strided_scalar(block + f.velocity_index(0, b, c), stride,
                                   block + f.velocity_index(0, b, c), stride,
                                   n, xi, Limiter::kMpp, ws);
    }
  } else if (axis == 1) {
    // Lines along iuy, stride nuz; lanes over contiguous iuz.
    const std::ptrdiff_t stride = d.nuz;
    for (int a = 0; a < d.nux; ++a) {
      int c = 0;
      for (; vector && c + kLanes <= d.nuz; c += kLanes)
        advect_lines_simd(block + f.velocity_index(a, 0, c), stride,
                          block + f.velocity_index(a, 0, c), stride, n, shift,
                          ws);
      for (; c < d.nuz; ++c)
        advect_line_strided_scalar(block + f.velocity_index(a, 0, c), stride,
                                   block + f.velocity_index(a, 0, c), stride,
                                   n, xi, Limiter::kMpp, ws);
    }
  } else {
    // Lines along the contiguous iuz axis; kLanes adjacent iuy lines per
    // LAT call (line stride nuz).
    const std::ptrdiff_t line_stride = d.nuz;
    for (int a = 0; a < d.nux; ++a) {
      int b = 0;
      for (; vector && b + kLanes <= d.nuy; b += kLanes) {
        float* lines0 = block + f.velocity_index(a, b, 0);
        if (kernel == SweepKernel::kSimd)
          advect_lines_lat_gather(lines0, line_stride, lines0, line_stride,
                                  n, shift, ws);
        else
          advect_lines_lat(lines0, line_stride, lines0, line_stride, n, shift,
                           ws);
      }
      for (; b < d.nuy; ++b)
        advect_line_strided_scalar(block + f.velocity_index(a, b, 0), 1,
                                   block + f.velocity_index(a, b, 0), 1, n,
                                   xi, Limiter::kMpp, ws);
    }
  }
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
          advect_block_axis(f.block(ix, iy, iz), f, axis, xi, resolved, ws);
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
            advect_block_axis(block, f, axis, xi, resolved[axis], ws);
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
