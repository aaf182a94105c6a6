#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "vlasov/advect_vec_impl.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

// Position sweeps (paper Eq. 3): advection speed along spatial axis i is
// u_i / a^2; drift_factor carries the time integral of dt/a^2.  The speed
// of a velocity line depends on its iux (x sweep), iuy (y) or iuz (z)
// index, so a lane group of velocity cells may hold several shifts.
//
// The per-line shift depends only on the velocity index, never on the
// spatial line, so the shift tables (xi per velocity index for the scalar
// lanes, GroupShifts for the lane groups) are built once per sweep and
// shared by every thread — the hot loop reduces to table loads plus the
// flux cores.  One group loop serves all three axes: it walks L-lane
// groups straight through each cell's velocity block in memory order, L
// being the sweep tier's lane count (simd/dispatch.hpp), then 4-lane
// groups, then scalar lanes.  A group takes its per-lane shifts from the
// table; they are uniform where the group lies inside one shift's cells.
// At nu = 12 on the AVX-512 tier a 16-lane group spans 1 1/3 uz rows, so
// every z group and the y group at u_y = 0 hold both velocity signs and
// run the kernel's blended loop.
//
// Threading is over spatial lines (collapse(2)); each thread keeps one
// reusable AdvectWorkspace so the sweep never allocates in steady state.
// Every group is staged into the workspace — low ghosts, interior, high
// ghosts — and advected by the shared SL-MPP5 cores, the vector kernel
// writing straight into the line's blocks.  The ghosts come from the two
// faces, or from the line's periodic image when the brick spans the axis.
// One spatial line's lane groups are the body compiled per sweep tier,
// called once per line inside the OpenMP loop.

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
  const double* xi;           // per iux (x sweep), iuy (y) or iuz (z)
  const GroupShifts* wide;    // the tier's groups, from velocity cell 0
  const GroupShifts* narrow;  // 4-lane groups after them (wider tiers)

  /// The shift of velocity cell v of a block.
  double xi_at(std::ptrdiff_t v) const {
    const auto& d = f->dims();
    return xi[axis == 0   ? v / (static_cast<std::ptrdiff_t>(d.nuy) * d.nuz)
              : axis == 1 ? (v / d.nuz) % d.nuy
                          : v % d.nuz];
  }
};

// Advect the groups of `table`, W lanes each and the first at velocity
// cell v0, along the spatial line whose cells `cell` addresses; the lanes
// of a group without a shape go to `scalar_lane`.
template <int W, class ScalarLane>
inline void advect_groups(const GroupShifts& table, std::ptrdiff_t v0,
                          const float* const* cell, float* line,
                          std::ptrdiff_t stride, int n_cells,
                          AdvectWorkspace& ws, ScalarLane&& scalar_lane) {
  using P = simd::Pack<float, W>;
  assert(table.groups() == 0 || table.lanes() == W);
  for (int g = 0; g < table.groups(); ++g) {
    const std::ptrdiff_t v = v0 + static_cast<std::ptrdiff_t>(g) * W;
    if (!table.shape(g)) {
      for (int l = 0; l < W; ++l) scalar_lane(v + l);
      continue;
    }
    const auto shift = LineShift<W>::load(table, g);
    const int ghost = shift.max_ghost;
    ws.ensure(n_cells, ghost, W, 0, W);
    for (int k = -ghost; k < n_cells + ghost; ++k)
      P::load(cell[k] + v).store(ws.in.data() + (k + ghost) * W);
    detail::sl_mpp5_kernel_vec<W>(ws.in.data(), W, line + v, stride, n_cells,
                                  ghost, shift, ws.flux.data());
  }
}

// Advect every velocity line of the spatial line (t1, t2) in L-lane
// groups.  `cell` is per-thread scratch for the block address of every
// cell the line's stencils read: cell[k] for k = -max_ghost ..
// n_cells + max_ghost - 1.
template <int L>
inline void advect_spatial_line(const LineSweep& sw, int t1, int t2,
                                const float** cell, AdvectWorkspace& ws) {
  const int n_cells = sw.n_cells;
  const std::ptrdiff_t stride = sw.stride;
  float* line = line_start(*sw.f, sw.axis, t1, t2);
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
  const auto scalar_lane = [&](std::ptrdiff_t v) {
    const double xi = sw.xi_at(v);
    const int ghost = required_ghost(xi);
    ws.ensure(n_cells, ghost, 1, 1, 1);
    for (int k = -ghost; k < n_cells + ghost; ++k)
      ws.in[k + ghost] = cell[k][v];
    advect_line_scalar(ws.in.data(), ws.out.data(), n_cells, ghost, xi,
                       Limiter::kMpp);
    for (int i = 0; i < n_cells; ++i) line[i * stride + v] = ws.out[i];
  };
  std::ptrdiff_t v = 0;
  if (!sw.scalar) {
    advect_groups<L>(*sw.wide, v, cell, line, stride, n_cells, ws,
                     scalar_lane);
    v += static_cast<std::ptrdiff_t>(sw.wide->groups()) * L;
    if constexpr (L > kSweepLanes) {
      advect_groups<kSweepLanes>(*sw.narrow, v, cell, line, stride, n_cells,
                                 ws, scalar_lane);
      v += static_cast<std::ptrdiff_t>(sw.narrow->groups()) * kSweepLanes;
    }
  }
  for (; v < sw.bs; ++v) scalar_lane(v);
}

using SpatialLineFn = void (*)(const LineSweep&, int, int, const float**,
                               AdvectWorkspace&);

void spatial_line_baseline(const LineSweep& sw, int t1, int t2,
                           const float** cell, AdvectWorkspace& ws) {
  advect_spatial_line<simd::sweep_lanes(simd::SweepTier::kBaseline)>(
      sw, t1, t2, cell, ws);
}
V6D_SWEEP_TIER_AVX512 void spatial_line_avx512(const LineSweep& sw, int t1,
                                               int t2, const float** cell,
                                               AdvectWorkspace& ws) {
  advect_spatial_line<simd::sweep_lanes(simd::SweepTier::kAvx512)>(
      sw, t1, t2, cell, ws);
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
  // the x sweep, iuy for y and iuz for z.  The lane groups follow, at the
  // tier's width through each block, then at 4 lanes.
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
  LineSweep sweep{.f = &f,
                  .axis = axis,
                  .n_cells = n_cells,
                  .t2n = t2n,
                  .max_ghost = max_ghost,
                  .bs = bs,
                  .stride = stride,
                  .face_layer = face_layer,
                  .faces = &faces,
                  .scalar = resolved == SweepKernel::kScalar,
                  .xi = xi_table.data(),
                  .wide = nullptr,
                  .narrow = nullptr};
  const simd::SweepTier tier = simd::sweep_tier();
  const int lanes = simd::sweep_lanes(tier);
  const int wide_groups = static_cast<int>(bs / lanes);
  const std::ptrdiff_t narrow_from =
      static_cast<std::ptrdiff_t>(wide_groups) * lanes;
  const GroupShifts wide([&](std::ptrdiff_t v) { return sweep.xi_at(v); },
                         wide_groups, lanes, Limiter::kMpp);
  const GroupShifts narrow(
      [&](std::ptrdiff_t v) { return sweep.xi_at(narrow_from + v); },
      lanes > kSweepLanes ? static_cast<int>((bs - narrow_from) / kSweepLanes)
                          : 0,
      kSweepLanes, Limiter::kMpp);
  sweep.wide = &wide;
  sweep.narrow = &narrow;
  const SpatialLineFn spatial_line = simd::for_sweep_tier<SpatialLineFn>(
      tier, spatial_line_baseline, spatial_line_avx512);

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
