#include <algorithm>
#include <cmath>
#include <vector>

#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

// Position sweeps (paper Eq. 3): advection speed along spatial axis i is
// u_i / a^2; drift_factor carries the time integral of dt/a^2.  For the x
// and y sweeps the speed is constant across the contiguous uz lanes (it
// depends on the iux / iuy index), so lane groups share one xi.  For the z
// sweep the speed varies per lane (it *is* u_z), so the per-lane-shift
// kernel is used.
//
// The per-line shift depends only on the velocity index, never on the
// spatial line, so the whole shift table is computed once per sweep and
// shared by every thread — the hot loop reduces to table lookups plus the
// line kernels.  Threading is over spatial lines (collapse(2)); each
// thread keeps one reusable AdvectWorkspace so the kernels never allocate
// in steady state.  Every interior line is advected in place over its
// full extent, reading the axis ghosts (filled beforehand) as stencil
// margins.

namespace {

// Interior transverse extents of `axis` in ascending-axis order.
inline void transverse_extents(const PhaseSpaceDims& d, int axis, int& t1n,
                               int& t2n) {
  t1n = axis == 0 ? d.ny : d.nx;
  t2n = axis == 2 ? d.ny : d.nz;
}

// First interior block of the line along `axis` at transverse coordinates
// (t1, t2) in ascending-axis order.
inline float* line_start(PhaseSpace& f, int axis, int t1, int t2) {
  int idx[3];
  idx[axis] = 0;
  int tpos = 0;
  for (int t = 0; t < 3; ++t) {
    if (t == axis) continue;
    idx[t] = tpos == 0 ? t1 : t2;
    ++tpos;
  }
  return f.block(idx[0], idx[1], idx[2]);
}

}  // namespace

void advect_position_axis(PhaseSpace& f, int axis, double drift_factor,
                          SweepKernel kernel) {
  const auto& d = f.dims();
  const int n_cells = axis == 0 ? d.nx : axis == 1 ? d.ny : d.nz;
  if (n_cells <= 0) return;
  const auto& g = f.geom();
  const double dx = axis == 0 ? g.dx : axis == 1 ? g.dy : g.dz;
  const std::ptrdiff_t stride =
      static_cast<std::ptrdiff_t>(axis == 0   ? f.block_stride_x()
                                  : axis == 1 ? f.block_stride_y()
                                              : f.block_stride_z()) *
      static_cast<std::ptrdiff_t>(f.block_size());

  int t1n = 0, t2n = 0;
  transverse_extents(d, axis, t1n, t2n);
  const SweepKernel resolved =
      simd::resolve_sweep_kernel(kernel, /*contiguous_axis=*/false);
  const bool scalar = resolved == SweepKernel::kScalar;
  const double inv_dx_drift = drift_factor / dx;

  // Shift tables, hoisted out of the spatial loops: for the x/y sweeps xi
  // is indexed by iux (resp. iuy); for the z sweep it is indexed by iuz
  // (one entry per lane of a group).
  std::vector<double> xi_table;
  if (axis == 0) {
    xi_table.resize(static_cast<std::size_t>(d.nux));
    for (int a = 0; a < d.nux; ++a) xi_table[a] = g.ux(a) * inv_dx_drift;
  } else if (axis == 1) {
    xi_table.resize(static_cast<std::size_t>(d.nuy));
    for (int b = 0; b < d.nuy; ++b) xi_table[b] = g.uy(b) * inv_dx_drift;
  } else {
    xi_table.resize(static_cast<std::size_t>(d.nuz));
    for (int c = 0; c < d.nuz; ++c) xi_table[c] = g.uz(c) * inv_dx_drift;
  }

#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    AdvectWorkspace ws;
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
    for (int t1 = 0; t1 < t1n; ++t1) {
      for (int t2 = 0; t2 < t2n; ++t2) {
        float* line = line_start(f, axis, t1, t2);
        for (int a = 0; a < d.nux; ++a) {
          for (int b = 0; b < d.nuy; ++b) {
            if (axis == 0 || axis == 1) {
              const double xi = xi_table[axis == 0 ? a : b];
              int c = 0;
              for (; !scalar && c + kLanes <= d.nuz; c += kLanes) {
                const std::size_t vi = f.velocity_index(a, b, c);
                advect_lines_simd(line + vi, stride, line + vi, stride,
                                  n_cells, xi, Limiter::kMpp,
                                  GhostMode::kFromSource, ws);
              }
              for (; c < d.nuz; ++c) {
                const std::size_t vi = f.velocity_index(a, b, c);
                advect_line_strided_scalar(line + vi, stride, line + vi,
                                           stride, n_cells, xi,
                                           Limiter::kMpp,
                                           GhostMode::kFromSource, ws);
              }
            } else {
              // z sweep: xi varies across the uz lanes.
              int c = 0;
              for (; !scalar && c + kLanes <= d.nuz; c += kLanes) {
                const std::size_t vi = f.velocity_index(a, b, c);
                advect_lines_simd_multi(line + vi, stride, line + vi, stride,
                                        n_cells, &xi_table[c], Limiter::kMpp,
                                        GhostMode::kFromSource, ws);
              }
              for (; c < d.nuz; ++c) {
                const std::size_t vi = f.velocity_index(a, b, c);
                advect_line_strided_scalar(line + vi, stride, line + vi,
                                           stride, n_cells, xi_table[c],
                                           Limiter::kMpp,
                                           GhostMode::kFromSource, ws);
              }
            }
          }
        }
      }
    }
  }
}

double max_position_shift(const PhaseSpace& f, double drift_factor) {
  const auto& g = f.geom();
  const double dmin = std::min({g.dx, g.dy, g.dz});
  // Largest |u| at cell centers is umax - du/2 along each axis.
  const double umax_eff = g.umax - 0.5 * std::min({g.dux, g.duy, g.duz});
  return std::fabs(umax_eff * drift_factor) / dmin;
}

}  // namespace v6d::vlasov
