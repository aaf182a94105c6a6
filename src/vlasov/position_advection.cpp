#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

// Position sweeps (paper Eq. 3): advection speed along spatial axis i is
// u_i / a^2; drift_factor carries the time integral of dt/a^2.  For the x
// and y sweeps the speed is constant across the contiguous uz lanes (it
// depends on the iux / iuy index), so lane groups share one xi.  For the z
// sweep the speed varies per lane (it *is* u_z), so each lane group gets a
// per-lane shift.
//
// The per-line shift depends only on the velocity index, never on the
// spatial line, so the shift tables (xi for the scalar lines, LineShift for
// the lane groups) are built once per sweep and shared by every thread —
// the hot loop reduces to table lookups plus the line kernels.  Threading
// is over spatial lines (collapse(2)); each thread keeps one reusable
// AdvectWorkspace so the kernels never allocate in steady state.  Every
// interior line is advected in place over its full extent, reading the
// axis ghosts (filled beforehand) as stencil margins.

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

  // Shift tables, hoisted out of the spatial loops: xi depends on iux for
  // the x sweep, iuy for y and iuz for z.  The lane-group shifts follow:
  // one per iux (x) or iuy (y), one per uz lane group (z), where a group
  // per_lane cannot vectorize holds none and runs lane by lane.
  const int n_xi = axis == 0 ? d.nux : axis == 1 ? d.nuy : d.nuz;
  std::vector<double> xi_table(static_cast<std::size_t>(n_xi));
  for (int k = 0; k < n_xi; ++k)
    xi_table[k] = (axis == 0   ? g.ux(k)
                   : axis == 1 ? g.uy(k)
                               : g.uz(k)) *
                  inv_dx_drift;
  std::vector<std::optional<LineShift>> shift_table;
  if (axis == 2) {
    for (int c = 0; c + kLanes <= d.nuz; c += kLanes)
      shift_table.push_back(LineShift::per_lane(&xi_table[c], Limiter::kMpp));
  } else {
    for (const double xi : xi_table)
      shift_table.emplace_back(LineShift::uniform(xi, Limiter::kMpp));
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
            const auto scalar_line = [&](int c) {
              float* lc = line + f.velocity_index(a, b, c);
              advect_line_strided_scalar(
                  lc, stride, lc, stride, n_cells,
                  xi_table[axis == 0 ? a : axis == 1 ? b : c], Limiter::kMpp,
                  GhostMode::kFromSource, ws);
            };
            int c = 0;
            for (; !scalar && c + kLanes <= d.nuz; c += kLanes) {
              const auto& shift = shift_table[axis == 0   ? a
                                              : axis == 1 ? b
                                                          : c / kLanes];
              if (!shift) {
                for (int l = 0; l < kLanes; ++l) scalar_line(c + l);
                continue;
              }
              float* lc = line + f.velocity_index(a, b, c);
              advect_lines_simd(lc, stride, lc, stride, n_cells, *shift,
                                GhostMode::kFromSource, ws);
            }
            for (; c < d.nuz; ++c) scalar_line(c);
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
