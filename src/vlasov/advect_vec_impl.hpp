// Shared SL-MPP5 flux kernel of the vector line sweeps and the two panel
// kernels around it, advect_lines_simd and advect_lines_lat (declared in
// advect_kernels.hpp; included by the advect_*.cpp and sweep translation
// units, the kernel tests and benches).  Everything here is an inline
// template on the lane count L, so that each sweep tier (simd/dispatch.hpp)
// compiles its own copy, at its own width, into its flattened body.
// Mirrors advect_line_scalar in sl_mpp5.cpp; any change here must be
// reflected there — the test suite pins scalar/SIMD/LAT equivalence to
// catch divergence.
//
// The kernel takes its per-lane weights from a LineShift: the velocity
// sweeps broadcast a single shift xi to all lanes, while a position
// sweep's group spans velocity cells whose speed (hence xi) may differ per
// lane.  A lane's floor(xi) may be the shift's s or s + 1; when any lane is
// at s + 1 a separate loop loads the six cells that cover both stencils
// and blends them per lane.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "simd/pack.hpp"
#include "simd/transpose.hpp"
#include "vlasov/advect_kernels.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::vlasov::detail {

template <int L>
inline simd::Pack<float, L> mp_limit_vec(simd::Pack<float, L> g,
                                         simd::Pack<float, L> fm2,
                                         simd::Pack<float, L> fm1,
                                         simd::Pack<float, L> f0,
                                         simd::Pack<float, L> fp1,
                                         simd::Pack<float, L> fp2,
                                         simd::Pack<float, L> alpha,
                                         simd::Pack<float, L> alpha_third) {
  using P = simd::Pack<float, L>;
  const P half = P::broadcast(0.5f);
  const P one = P::broadcast(1.0f);
  const P eps = P::broadcast(1e-20f);

  const P f_mp = f0 + simd::minmod(fp1 - f0, alpha * (f0 - fm1));
  const auto accept = ((g - f0) * (g - f_mp)) <= eps;
  // mp_limit returns here; when every lane would, skip the bounds too.
  if (simd::all<float, L>(accept)) return g;

  const P two = P::broadcast(2.0f);
  const P dm1 = fm2 - two * fm1 + f0;
  const P d0 = fm1 - two * f0 + fp1;
  const P dp1 = f0 - two * fp1 + fp2;
  const P four = P::broadcast(4.0f);
  const P d_half_p = simd::minmod4(four * d0 - dp1, four * dp1 - d0, d0, dp1);
  const P d_half_m = simd::minmod4(four * dm1 - d0, four * d0 - dm1, dm1, d0);

  const P f_ul = f0 + alpha * (f0 - fm1);
  const P f_av = half * (f0 + fp1);
  const P f_md = f_av - half * d_half_p;
  // alpha_third is the pre-rounded alpha / 3.0f so the result stays
  // bit-identical to the scalar reference (which divides; a * (1/3)
  // rounds differently).
  const P f_lc = f0 + half * simd::min(one, alpha) * (f0 - fm1) +
                 alpha_third * d_half_m;

  const P f_min =
      simd::max(simd::min(simd::min(f0, fp1), f_md),
                simd::min(simd::min(f0, f_ul), f_lc));
  const P f_max =
      simd::min(simd::max(simd::max(f0, fp1), f_md),
                simd::max(simd::max(f0, f_ul), f_lc));
  const P limited = simd::median(g, f_min, f_max);
  return simd::select<float, L>(accept, g, limited);
}

// in: (cell -ghost, lane 0); cells are `cs` floats apart, lanes contiguous.
// out: (cell 0, lane 0); cells `os` floats apart.  flux: (n+1)*L scratch.
// in and out must not alias (callers stage through workspace buffers).
template <int L>
inline void sl_mpp5_kernel_vec(const float* in, std::ptrdiff_t cs, float* out,
                               std::ptrdiff_t os, int n, int ghost,
                               const LineShift<L>& sh, float* flux) {
  using P = typename LineShift<L>::P;
  assert(ghost >= sh.max_ghost);
  const int s = sh.s;
  const auto upper = sh.upper;

  const float* c0 = in + static_cast<std::ptrdiff_t>(ghost) * cs;
  const auto cell = [c0, cs](int k) {
    return P::load(c0 + static_cast<std::ptrdiff_t>(k) * cs);
  };
  // Lanes in `upper` read cell k - 1 where the others read cell k.
  const auto blend = [upper](P at_k_minus_1, P at_k) {
    return simd::select<float, L>(upper, at_k_minus_1, at_k);
  };

  if (sh.pure_shift && !sh.mixed) {
    for (int i = 0; i < n; ++i)
      cell(i - s).store(out + static_cast<std::ptrdiff_t>(i) * os);
    return;
  }
  if (sh.pure_shift) {
    for (int i = 0; i < n; ++i)
      blend(cell(i - s - 1), cell(i - s))
          .store(out + static_cast<std::ptrdiff_t>(i) * os);
    return;
  }

  const P w0 = sh.w0, w1 = sh.w1, w2 = sh.w2, w3 = sh.w3, w4 = sh.w4;
  const P theta = sh.theta, inv_theta = sh.inv_theta;
  const P alpha = sh.alpha, alpha_third = sh.alpha_third;
  const bool limit = sh.limit;
  const bool clamp = sh.limiter == Limiter::kMpp;
  const P zero = P::zero();
  // Fractional flux through the right interface of donor cell f0.
  const auto flux_of = [&](P fm2, P fm1, P f0, P fp1, P fp2) {
    P F = simd::fma(
        w4, fp2,
        simd::fma(w3, fp1, simd::fma(w2, f0, simd::fma(w1, fm1, w0 * fm2))));
    if (limit) {
      const P g = F * inv_theta;
      const P g_lim =
          mp_limit_vec<L>(g, fm2, fm1, f0, fp1, fp2, alpha, alpha_third);
      // Lanes with theta ~ 0 keep their (zero) raw flux.
      const auto active = theta > P::broadcast(1e-12f);
      F = simd::select<float, L>(active, theta * g_lim, F);
    }
    if (clamp) F = simd::max(zero, simd::min(F, f0));
    return F;
  };
  const auto flux_at = [flux](int k) {
    return P::load(flux + static_cast<std::ptrdiff_t>(k) * L);
  };

  if (!sh.mixed) {
    for (int i = -1; i < n; ++i) {
      const int j = i - s;
      flux_of(cell(j - 2), cell(j - 1), cell(j), cell(j + 1), cell(j + 2))
          .store(flux + static_cast<std::ptrdiff_t>(i + 1) * L);
    }
    for (int i = 0; i < n; ++i)
      (cell(i - s) - flux_at(i + 1) + flux_at(i))
          .store(out + static_cast<std::ptrdiff_t>(i) * os);
    return;
  }

  // Mixed floors: cells j-3 .. j+2 cover the stencil of both floors.
  for (int i = -1; i < n; ++i) {
    const int j = i - s;
    const P q0 = cell(j - 3), q1 = cell(j - 2), q2 = cell(j - 1),
            q3 = cell(j), q4 = cell(j + 1), q5 = cell(j + 2);
    flux_of(blend(q0, q1), blend(q1, q2), blend(q2, q3), blend(q3, q4),
            blend(q4, q5))
        .store(flux + static_cast<std::ptrdiff_t>(i + 1) * L);
  }
  for (int i = 0; i < n; ++i)
    (blend(cell(i - s - 1), cell(i - s)) - flux_at(i + 1) + flux_at(i))
        .store(out + static_cast<std::ptrdiff_t>(i) * os);
}

// Zero the `ghost` rows of `width` floats on each side of a padded panel
// of n rows.
inline void zero_panel_ghosts(float* in, std::ptrdiff_t width, int n,
                              int ghost) {
  std::fill_n(in, ghost * width, 0.0f);
  std::fill_n(in + (ghost + n) * width, ghost * width, 0.0f);
}

// Advect the lanes [0, lanes) of a staged panel by `shift`: in addresses
// (cell -ghost, lane 0) of a panel with rows `width` floats apart, out
// (cell 0, lane 0) of results with rows `os` floats apart.  L-lane groups
// run first, then kSweepLanes-lane groups; returns the lanes covered,
// lanes - lanes % kSweepLanes.
template <int L>
inline int advect_staged_groups(const float* in, std::ptrdiff_t width,
                                float* out, std::ptrdiff_t os, int n,
                                int lanes, int ghost, const LaneShift& shift,
                                float* flux) {
  int l = 0;
  const auto wide = LineShift<L>::uniform(shift);
  for (; l + L <= lanes; l += L)
    sl_mpp5_kernel_vec<L>(in + l, width, out + l, os, n, ghost, wide, flux);
  if constexpr (L > kSweepLanes) {
    const auto narrow = LineShift<kSweepLanes>::uniform(shift);
    for (; l + kSweepLanes <= lanes; l += kSweepLanes)
      sl_mpp5_kernel_vec<kSweepLanes>(in + l, width, out + l, os, n, ghost,
                                      narrow, flux);
  }
  return l;
}

// Move kSweepLanes lines of n cells (line stride `line_stride`) into the
// columns of a cell-major panel with rows `width` floats apart, through
// kSweepLanes x kSweepLanes in-register transposes (the LAT step).
inline void lines_to_columns(const float* src, std::ptrdiff_t line_stride,
                             float* cols, std::ptrdiff_t width, int n) {
  constexpr int L = kSweepLanes;
  int t = 0;
  for (; t + L <= n; t += L)
    simd::transpose_tile<float, L>(src + t, line_stride, cols + t * width,
                                   width);
  for (; t < n; ++t)
    for (int l = 0; l < L; ++l) cols[t * width + l] = src[l * line_stride + t];
}

// The inverse move: kSweepLanes panel columns back into lines.
inline void columns_to_lines(const float* cols, std::ptrdiff_t width,
                             float* dst, std::ptrdiff_t line_stride, int n) {
  constexpr int L = kSweepLanes;
  int t = 0;
  for (; t + L <= n; t += L)
    simd::transpose_tile<float, L>(cols + t * width, width, dst + t,
                                   line_stride);
  for (; t < n; ++t)
    for (int l = 0; l < L; ++l) dst[l * line_stride + t] = cols[t * width + l];
}

}  // namespace v6d::vlasov::detail

namespace v6d::vlasov {

// The panel's lane groups are staged once, as [n + 2*ghost][wide] with
// zero ghost rows; every group then runs straight from that copy into dst.
template <int L>
inline int advect_lines_simd(const float* src, std::ptrdiff_t cell_stride,
                             float* dst, std::ptrdiff_t dst_cell_stride,
                             int n, int lanes, const LaneShift& shift,
                             AdvectWorkspace& ws) {
  const int wide = lanes - lanes % kSweepLanes;
  if (wide == 0) return 0;
  const int ghost = shift.shape.max_ghost;
  ws.ensure(n, ghost, wide, 0, L);
  float* in = ws.in.data();
  detail::zero_panel_ghosts(in, wide, n, ghost);
  for (int k = 0; k < n; ++k)
    std::copy_n(src + k * cell_stride, wide, in + (ghost + k) * wide);
  return detail::advect_staged_groups<L>(in, wide, dst, dst_cell_stride, n,
                                         wide, ghost, shift, ws.flux.data());
}

// The panel's lane groups are transposed once into [n + 2*ghost][wide],
// advected group by group into a cell-major result panel and transposed
// back.
template <int L>
inline int advect_lines_lat(const float* src, std::ptrdiff_t line_stride,
                            float* dst, std::ptrdiff_t dst_line_stride, int n,
                            int lanes, const LaneShift& shift,
                            AdvectWorkspace& ws) {
  const int wide = lanes - lanes % kSweepLanes;
  if (wide == 0) return 0;
  const int ghost = shift.shape.max_ghost;
  ws.ensure(n, ghost, wide, wide, L);
  float* in = ws.in.data();
  float* out = ws.out.data();
  detail::zero_panel_ghosts(in, wide, n, ghost);
  for (std::ptrdiff_t l = 0; l < wide; l += kSweepLanes)
    detail::lines_to_columns(src + l * line_stride, line_stride,
                             in + ghost * wide + l, wide, n);
  detail::advect_staged_groups<L>(in, wide, out, wide, n, wide, ghost, shift,
                                  ws.flux.data());
  for (std::ptrdiff_t l = 0; l < wide; l += kSweepLanes)
    detail::columns_to_lines(out + l, wide, dst + l * dst_line_stride,
                             dst_line_stride, n);
  return wide;
}

}  // namespace v6d::vlasov
