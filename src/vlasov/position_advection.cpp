#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "vlasov/advect_vec_impl.hpp"
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
// the hot loop reduces to table lookups plus the flux cores.  Threading
// is over spatial lines (collapse(2)); each thread keeps one reusable
// AdvectWorkspace so the sweep never allocates in steady state.  Every
// line group is staged into the workspace — low ghosts, interior, high
// ghosts — and advected by the shared SL-MPP5 cores, the vector kernel
// writing straight into the line's blocks.  The ghosts come from the two
// faces, or from the line's periodic image when the brick spans the axis.
// One spatial line's lane groups are the body compiled per sweep tier
// (simd/dispatch.hpp), called once per line inside the OpenMP loop.

namespace {

// Interior transverse extents of `axis` in ascending-axis order.
inline void transverse_extents(const PhaseSpaceDims& d, int axis, int& t1n,
                               int& t2n) {
  t1n = axis == 0 ? d.ny : d.nx;
  t2n = axis == 2 ? d.ny : d.nz;
}

// First block of the line along `axis` at transverse coordinates (t1, t2)
// in ascending-axis order.
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

// What every line of one sweep shares: the geometry, the faces and the
// shift tables.
struct LineSweep {
  PhaseSpace* f;
  int axis;
  int n_cells;
  int t2n;
  int max_ghost;
  std::ptrdiff_t bs;          // floats per velocity block
  std::ptrdiff_t stride;      // floats between a line's blocks
  std::ptrdiff_t face_layer;  // floats per face layer
  const AxisFaces* faces;
  bool scalar;  // the scalar kernel on every line
  const double* xi_table;
  const std::optional<LineShift>* shift_table;
};

// Advect every velocity line of the spatial line (t1, t2).  `cell` is
// per-thread scratch for the block address of every cell the line's
// stencils read: cell[k] for k = -max_ghost .. n_cells + max_ghost - 1.
inline void advect_spatial_line(const LineSweep& sw, int t1, int t2,
                                const float** cell, AdvectWorkspace& ws) {
  using P = LineShift::P;
  PhaseSpace& f = *sw.f;
  const auto& d = f.dims();
  const int n_cells = sw.n_cells;
  const std::ptrdiff_t stride = sw.stride;
  float* line = line_start(f, sw.axis, t1, t2);
  const std::ptrdiff_t face_cell =
      (static_cast<std::ptrdiff_t>(t1) * sw.t2n + t2) * sw.bs;
  for (int k = -sw.max_ghost; k < n_cells + sw.max_ghost; ++k) {
    const float* face = k < 0 ? sw.faces->lo : sw.faces->hi;
    const int layer = k < 0 ? k + kStencilGhost : k - n_cells;
    cell[k] = (k >= 0 && k < n_cells) || !face
                  ? line + static_cast<std::ptrdiff_t>(
                               ((k % n_cells) + n_cells) % n_cells) *
                               stride
                  : face + layer * sw.face_layer + face_cell;
  }
  for (int a = 0; a < d.nux; ++a) {
    for (int b = 0; b < d.nuy; ++b) {
      const auto scalar_line = [&](int c) {
        const double xi = sw.xi_table[sw.axis == 0   ? a
                                      : sw.axis == 1 ? b
                                                     : c];
        const int ghost = required_ghost(xi);
        ws.ensure(n_cells, ghost, 1, 1);
        const auto v = static_cast<std::ptrdiff_t>(f.velocity_index(a, b, c));
        for (int k = -ghost; k < n_cells + ghost; ++k)
          ws.in[k + ghost] = cell[k][v];
        advect_line_scalar(ws.in.data(), ws.out.data(), n_cells, ghost, xi,
                           Limiter::kMpp);
        for (int i = 0; i < n_cells; ++i) line[i * stride + v] = ws.out[i];
      };
      int c = 0;
      for (; !sw.scalar && c + kSweepLanes <= d.nuz; c += kSweepLanes) {
        const auto& shift = sw.shift_table[sw.axis == 0   ? a
                                           : sw.axis == 1 ? b
                                                          : c / kSweepLanes];
        if (!shift) {
          for (int l = 0; l < kSweepLanes; ++l) scalar_line(c + l);
          continue;
        }
        const int ghost = shift->max_ghost;
        ws.ensure(n_cells, ghost, kSweepLanes, 0);
        const auto v = static_cast<std::ptrdiff_t>(f.velocity_index(a, b, c));
        for (int k = -ghost; k < n_cells + ghost; ++k)
          P::load(cell[k] + v).store(ws.in.data() + (k + ghost) * kSweepLanes);
        detail::sl_mpp5_kernel_vec(ws.in.data(), kSweepLanes, line + v, stride,
                                   n_cells, ghost, *shift, ws.flux.data());
      }
      for (; c < d.nuz; ++c) scalar_line(c);
    }
  }
}

using SpatialLineFn = void (*)(const LineSweep&, int, int, const float**,
                               AdvectWorkspace&);

void spatial_line_baseline(const LineSweep& sw, int t1, int t2,
                           const float** cell, AdvectWorkspace& ws) {
  advect_spatial_line(sw, t1, t2, cell, ws);
}
V6D_SWEEP_TIER_AVX512 void spatial_line_avx512(const LineSweep& sw, int t1,
                                               int t2, const float** cell,
                                               AdvectWorkspace& ws) {
  advect_spatial_line(sw, t1, t2, cell, ws);
}

}  // namespace

void advect_position_axis(PhaseSpace& f, int axis, double drift_factor,
                          SweepKernel kernel, AxisFaces faces) {
  const auto& d = f.dims();
  const int n_cells = axis == 0 ? d.nx : axis == 1 ? d.ny : d.nz;
  if (n_cells <= 0) return;
  const auto& g = f.geom();
  const double dx = axis == 0 ? g.dx : axis == 1 ? g.dy : g.dz;
  const auto bs = static_cast<std::ptrdiff_t>(f.block_size());
  const std::ptrdiff_t stride =
      static_cast<std::ptrdiff_t>(axis == 0   ? f.block_stride_x()
                                  : axis == 1 ? f.block_stride_y()
                                              : f.block_stride_z()) *
      bs;

  int t1n = 0, t2n = 0;
  transverse_extents(d, axis, t1n, t2n);
  // One face layer: every line's block, (t1, t2) in pack order.
  const std::ptrdiff_t face_layer = static_cast<std::ptrdiff_t>(t1n) * t2n * bs;
  const SweepKernel resolved =
      simd::resolve_sweep_kernel(kernel, /*contiguous_axis=*/false);
  const double inv_dx_drift = drift_factor / dx;

  // Shift tables, hoisted out of the spatial loops: xi depends on iux for
  // the x sweep, iuy for y and iuz for z.  The lane-group shifts follow:
  // one per iux (x) or iuy (y), one per uz lane group (z), where a group
  // per_lane cannot vectorize holds none and runs lane by lane.
  const int n_xi = axis == 0 ? d.nux : axis == 1 ? d.nuy : d.nuz;
  std::vector<double> xi_table(static_cast<std::size_t>(n_xi));
  int max_ghost = 0;
  for (int k = 0; k < n_xi; ++k) {
    xi_table[k] = (axis == 0   ? g.ux(k)
                   : axis == 1 ? g.uy(k)
                               : g.uz(k)) *
                  inv_dx_drift;
    max_ghost = std::max(max_ghost, required_ghost(xi_table[k]));
  }
  if ((faces.lo || faces.hi) && max_ghost > kStencilGhost)
    throw std::invalid_argument(
        "advect_position_axis: the shift needs more ghost layers than a "
        "face holds; subcycle the drift (|xi| <= 1)");
  std::vector<std::optional<LineShift>> shift_table;
  if (axis == 2) {
    for (int c = 0; c + kSweepLanes <= d.nuz; c += kSweepLanes)
      shift_table.push_back(LineShift::per_lane(&xi_table[c], Limiter::kMpp));
  } else {
    for (const double xi : xi_table)
      shift_table.emplace_back(LineShift::uniform(xi, Limiter::kMpp));
  }

  const LineSweep sweep{.f = &f,
                        .axis = axis,
                        .n_cells = n_cells,
                        .t2n = t2n,
                        .max_ghost = max_ghost,
                        .bs = bs,
                        .stride = stride,
                        .face_layer = face_layer,
                        .faces = &faces,
                        .scalar = resolved == SweepKernel::kScalar,
                        .xi_table = xi_table.data(),
                        .shift_table = shift_table.data()};
  const SpatialLineFn spatial_line = simd::for_sweep_tier<SpatialLineFn>(
      spatial_line_baseline, spatial_line_avx512);

#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    AdvectWorkspace ws;
    std::vector<const float*> cells(
        static_cast<std::size_t>(n_cells + 2 * max_ghost));
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
    for (int t1 = 0; t1 < t1n; ++t1)
      for (int t2 = 0; t2 < t2n; ++t2)
        spatial_line(sweep, t1, t2, cells.data() + max_ghost, ws);
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
