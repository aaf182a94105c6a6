// gravity::pp_accumulate_simd's summation order written out one float
// operation at a time, the oracle the PP kernel and the tree walk are
// memcmp-ed against: lane l sums the sources s = l (mod 4) of the whole
// 4-lane groups, the lanes add in order, then the tail adds one source at
// a time.  No build contracts a multiply-add, so each line rounds as the
// packs do, at any pack width.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "gravity/pp_kernel.hpp"

namespace v6d::pp_reference {

/// Adds (+=) to a[k][i] the acceleration along axis k of the first ns
/// sources s[0..2], masses sm, at target i of t[0..2].
inline void four_lane_sum(const std::vector<float>* t,
                          const std::vector<float>* s,
                          const std::vector<float>& sm, std::size_t ns,
                          const gravity::PpKernelParams& params,
                          const gravity::CutoffPoly& poly,
                          std::vector<float>* a) {
  constexpr std::size_t kLanes = 4;
  const float eps2 = static_cast<float>(params.eps * params.eps);
  const float inv_2rs =
      params.rs > 0.0 ? static_cast<float>(1.0 / (2.0 * params.rs)) : 0.0f;
  const float rcut2 =
      params.rcut > 0.0 ? static_cast<float>(params.rcut * params.rcut) : 0.0f;
  const float x_scale = 2.0f / static_cast<float>(poly.u_cut());
  const auto& c = poly.coeffs();
  const std::size_t full = ns / kLanes * kLanes;
  for (std::size_t i = 0; i < t[0].size(); ++i) {
    float lane[3][kLanes] = {};
    float d[3];
    for (std::size_t j = 0; j < full; ++j) {
      for (int k = 0; k < 3; ++k) d[k] = s[k][j] - t[k][i];
      const float r2 = (d[2] * d[2] + (d[1] * d[1] + d[0] * d[0])) + eps2;
      const float r = std::sqrt(r2);
      float f = sm[j] * (1.0f / (r2 * r));
      if (params.rs > 0.0) {
        const float x = r * inv_2rs * x_scale - 1.0f;
        const float two_x = x + x;
        float b1 = 0.0f, b2 = 0.0f;
        for (std::size_t n = c.size(); n-- > 1;) {
          const float b0 = two_x * b1 + (c[n] - b2);
          b2 = b1;
          b1 = b0;
        }
        f = f * (x * b1 + (c[0] - b2));
      }
      if ((rcut2 > 0.0f && !(r2 < rcut2)) || !(r2 > 0.0f)) f = 0.0f;
      for (int k = 0; k < 3; ++k)
        lane[k][j % kLanes] = f * d[k] + lane[k][j % kLanes];
    }
    float h[3] = {0.0f, 0.0f, 0.0f};
    for (int k = 0; k < 3; ++k)
      for (std::size_t l = 0; l < kLanes; ++l) h[k] += lane[k][l];
    for (std::size_t j = full; j < ns; ++j) {
      for (int k = 0; k < 3; ++k) d[k] = s[k][j] - t[k][i];
      const float r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
      if (r2 == 0.0f || (rcut2 > 0.0f && r2 >= rcut2)) continue;
      const float r = std::sqrt(r2);
      float f = sm[j] / (r2 * r);
      if (params.rs > 0.0) f *= poly.eval(r * inv_2rs);
      for (int k = 0; k < 3; ++k) h[k] += f * d[k];
    }
    for (int k = 0; k < 3; ++k) a[k][i] += h[k];
  }
}

}  // namespace v6d::pp_reference
