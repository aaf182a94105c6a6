#include <algorithm>
#include <cmath>

#include "vlasov/advect_kernels.hpp"

namespace v6d::vlasov {

LineShift LineShift::uniform(double xi, Limiter limiter) {
  double lanes[kSweepLanes];
  std::fill(lanes, lanes + kSweepLanes, xi);
  // Equal lanes share one floor, so per_lane always returns a shift.
  return *per_lane(lanes, limiter);
}

std::optional<LineShift> LineShift::per_lane(const double* xi,
                                             Limiter limiter) {
  int floors[kSweepLanes];
  for (int l = 0; l < kSweepLanes; ++l)
    floors[l] = static_cast<int>(std::floor(xi[l]));
  const auto [lo, hi] = std::minmax_element(floors, floors + kSweepLanes);
  if (*hi - *lo > 1) return std::nullopt;

  LineShift sh;
  sh.s = *lo;
  sh.limiter = limiter;
  sh.pure_shift = true;
  for (int l = 0; l < kSweepLanes; ++l) {
    if (floors[l] != sh.s) {
      sh.upper[l] = -1;
      sh.mixed = true;
    }
    const double theta = xi[l] - floors[l];
    if (theta != 0.0) sh.pure_shift = false;
    const FluxWeights fw = FluxWeights::compute(theta);
    sh.w0.set(l, static_cast<float>(fw.w[0]));
    sh.w1.set(l, static_cast<float>(fw.w[1]));
    sh.w2.set(l, static_cast<float>(fw.w[2]));
    sh.w3.set(l, static_cast<float>(fw.w[3]));
    sh.w4.set(l, static_cast<float>(fw.w[4]));
    sh.theta.set(l, static_cast<float>(theta));
    sh.inv_theta.set(
        l, theta > 1e-12 ? static_cast<float>(1.0 / theta) : 0.0f);
    const float alpha = mp_alpha_for(theta);
    sh.alpha.set(l, alpha);
    sh.alpha_third.set(l, alpha / 3.0f);
    if (limiter != Limiter::kNone && theta > 1e-12) sh.limit = true;
    sh.max_ghost = std::max(sh.max_ghost, required_ghost(xi[l]));
  }
  // The blended stencil reads cells j-3 .. j+2 of j = i - s in every lane.
  // Keep within the ghosts the lanes themselves need: a position sweep
  // has no more than that in its halo.
  if (sh.mixed && !sh.pure_shift &&
      std::max(sh.s + kStencilGhost + 1, 2 - sh.s) > sh.max_ghost)
    return std::nullopt;
  return sh;
}

}  // namespace v6d::vlasov
