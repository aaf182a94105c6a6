// The one body of the single-precision PP kernel, an inline template on
// the source lanes L it evaluates per group (included by pp_kernel.cpp,
// whose pp_accumulate_simd copies run it, and by tree.cpp, whose
// walk-and-sum copies inline it).  Each sweep tier (simd/dispatch.hpp)
// compiles its own copy into its flattened body: L = 4 on the baseline
// tier, L = 16 (one zmm register per operand) on the AVX-512 tier.
//
// The sums do not depend on L.  They run in simd::kSweepLanes = 4 lanes:
// source s adds to lane s % 4, in source order, over every source of a
// whole 4-lane group; then the lanes add in order (0 + l0 + l1 + l2 + l3),
// then the tail adds one source at a time.  An L = 16 group evaluates its
// sources 16 at a time and adds the four 4-lane quarters of each product
// into the 4-lane sums one after the other, so each lane receives the
// same products in the same order as at L = 4.  Every lane performs the
// same float operations at any width and no build contracts a multiply-
// add (-ffp-contract=off), so both tiers give equal bits.
//
// A group whose every lane lies at or beyond rcut (and is finite) is
// skipped.  That is exact: its products would be f = +0 times a finite
// displacement, i.e. ±0, and x + ±0 = x for every x but -0, which the
// sums never hold (they start at +0, and a float sum is -0 only when both
// addends are).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "gravity/pp_kernel.hpp"
#include "simd/dispatch.hpp"
#include "simd/pack.hpp"

namespace v6d::gravity::detail {

/// The lane count of the sums, whatever L evaluates.
inline constexpr int kPpSumLanes = simd::kSweepLanes;
using PpSum = simd::Pack<float, kPpSumLanes>;

/// The float constants of one kernel call.
struct PpConstants {
  float eps2, inv_2rs, rcut2, x_scale;
  bool split;  // TreePM split: scale by the cutoff polynomial
  const float* c;
  std::size_t nc;

  PpConstants(const PpKernelParams& params, const CutoffPoly& poly)
      : eps2(static_cast<float>(params.eps * params.eps)),
        inv_2rs(params.rs > 0.0 ? static_cast<float>(1.0 / (2.0 * params.rs))
                                : 0.0f),
        rcut2(params.rcut > 0.0
                  ? static_cast<float>(params.rcut * params.rcut)
                  : 0.0f),
        x_scale(2.0f / static_cast<float>(poly.u_cut())),
        split(params.rs > 0.0),
        c(poly.coeffs().data()),
        nc(poly.coeffs().size()) {}
};

/// Lanes [4q, 4q + 4) of a W-lane pack.
template <int W>
inline PpSum quarter(const simd::Pack<float, W>& p, int q) {
  PpSum r;
  std::memcpy(&r.v, reinterpret_cast<const char*>(&p.v) + q * sizeof(r.v),
              sizeof(r.v));
  return r;
}

/// Add the products of one group (W lanes) to the sums, quarter by
/// quarter: p + g, the operand order of simd::fma.
template <int W>
inline void add_quarters(const simd::Pack<float, W>& p, PpSum& g) {
  for (int q = 0; q < W / kPpSumLanes; ++q) g = quarter(p, q) + g;
}

/// Sources [s, s + W) acting on the target (tx, ty, tz), added to g.
template <int W>
inline void pp_group(const PpConstants& k, float tx, float ty, float tz,
                     const float* sx, const float* sy, const float* sz,
                     const float* sm, std::size_t s, PpSum g[3]) {
  using P = simd::Pack<float, W>;
  const P dx = P::load(sx + s) - P::broadcast(tx);
  const P dy = P::load(sy + s) - P::broadcast(ty);
  const P dz = P::load(sz + s) - P::broadcast(tz);
  const P r2 =
      simd::fma(dz, dz, simd::fma(dy, dy, dx * dx)) + P::broadcast(k.eps2);
  if (k.rcut2 > 0.0f) {
    // Skip the group when every lane has a finite r2 >= rcut2.  Infinite
    // and NaN lanes read as 0, below rcut2.  (One select and one compare:
    // GCC scalarizes the AND of two 16-lane float compares lane by lane.)
    const P finite = simd::select<float, W>(
        r2 < P::broadcast(std::numeric_limits<float>::infinity()), r2,
        P::zero());
    if (simd::all<float, W>(finite >= P::broadcast(k.rcut2))) return;
  }
  const P r = simd::sqrt(r2);
  const P inv_r3 = P::broadcast(1.0f) / (r2 * r);
  P f = P::load(sm + s) * inv_r3;
  if (k.split) {
    // Clenshaw evaluation of the Chebyshev series at x = 2u/ucut - 1.
    const P u = r * P::broadcast(k.inv_2rs);
    const P x = u * P::broadcast(k.x_scale) - P::broadcast(1.0f);
    const P two_x = x + x;
    P b1 = P::zero(), b2 = P::zero();
    for (std::size_t n = k.nc; n-- > 1;) {
      const P b0 = simd::fma(two_x, b1, P::broadcast(k.c[n]) - b2);
      b2 = b1;
      b1 = b0;
    }
    f = f * simd::fma(x, b1, P::broadcast(k.c[0]) - b2);
  }
  if (k.rcut2 > 0.0f)
    f = simd::select<float, W>(r2 < P::broadcast(k.rcut2), f, P::zero());
  // Suppress self-interaction (r2 == 0 with zero softening).
  f = simd::select<float, W>(r2 > P::zero(), f, P::zero());
  add_quarters(f * dx, g[0]);
  add_quarters(f * dy, g[1]);
  add_quarters(f * dz, g[2]);
}

/// Accumulate (+=) into ax/ay/az the accelerations of the ns sources at
/// the nt targets (G = 1), evaluating L sources per group: whole L-lane
/// groups, then whole 4-lane groups, then one source at a time.
template <int L>
inline void pp_accumulate(const float* tx, const float* ty, const float* tz,
                          std::size_t nt, const float* sx, const float* sy,
                          const float* sz, const float* sm, std::size_t ns,
                          const PpKernelParams& params,
                          const CutoffPoly& poly, float* ax, float* ay,
                          float* az) {
  static_assert(L % kPpSumLanes == 0, "groups must tile the sum lanes");
  const PpConstants k(params, poly);
  for (std::size_t t = 0; t < nt; ++t) {
    PpSum g[3] = {PpSum::zero(), PpSum::zero(), PpSum::zero()};
    std::size_t s = 0;
    for (; s + L <= ns; s += L)
      pp_group<L>(k, tx[t], ty[t], tz[t], sx, sy, sz, sm, s, g);
    for (; s + kPpSumLanes <= ns; s += kPpSumLanes)
      pp_group<kPpSumLanes>(k, tx[t], ty[t], tz[t], sx, sy, sz, sm, s, g);
    float hx = simd::horizontal_sum(g[0]);
    float hy = simd::horizontal_sum(g[1]);
    float hz = simd::horizontal_sum(g[2]);
    for (; s < ns; ++s) {
      const float dx = sx[s] - tx[t];
      const float dy = sy[s] - ty[t];
      const float dz = sz[s] - tz[t];
      const float r2 = dx * dx + dy * dy + dz * dz + k.eps2;
      if (r2 == 0.0f) continue;
      if (k.rcut2 > 0.0f && r2 >= k.rcut2) continue;
      const float r = std::sqrt(r2);
      float f = sm[s] / (r2 * r);
      if (k.split) f *= poly.eval(r * k.inv_2rs);
      hx += f * dx;
      hy += f * dy;
      hz += f * dz;
    }
    ax[t] += hx;
    ay[t] += hy;
    az[t] += hz;
  }
}

}  // namespace v6d::gravity::detail
