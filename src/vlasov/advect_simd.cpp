#include <algorithm>
#include <cmath>

#include "vlasov/advect_kernels.hpp"
#include "vlasov/advect_vec_impl.hpp"

namespace v6d::vlasov {

LineShift LineShift::uniform(double xi, Limiter limiter) {
  double lanes[kLanes];
  std::fill(lanes, lanes + kLanes, xi);
  // Equal lanes share one floor, so per_lane always returns a shift.
  return *per_lane(lanes, limiter);
}

std::optional<LineShift> LineShift::per_lane(const double* xi,
                                             Limiter limiter) {
  int floors[kLanes];
  for (int l = 0; l < kLanes; ++l)
    floors[l] = static_cast<int>(std::floor(xi[l]));
  const auto [lo, hi] = std::minmax_element(floors, floors + kLanes);
  if (*hi - *lo > 1) return std::nullopt;

  LineShift sh;
  sh.s = *lo;
  sh.limiter = limiter;
  sh.pure_shift = true;
  for (int l = 0; l < kLanes; ++l) {
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

void advect_lines_simd(const float* src, std::ptrdiff_t cell_stride,
                       float* dst, std::ptrdiff_t dst_cell_stride, int n,
                       const LineShift& shift, AdvectWorkspace& ws) {
  using P = LineShift::P;
  const int ghost = shift.max_ghost;
  ws.ensure(n, ghost, kLanes);

  float* in = ws.in.data();
  const P zero = P::zero();
  for (int k = -ghost; k < 0; ++k) zero.store(in + (k + ghost) * kLanes);
  for (int k = 0; k < n; ++k)
    P::load(src + static_cast<std::ptrdiff_t>(k) * cell_stride)
        .store(in + (k + ghost) * kLanes);
  for (int k = n; k < n + ghost; ++k) zero.store(in + (k + ghost) * kLanes);
  detail::sl_mpp5_kernel_vec(in, kLanes, ws.out.data(), kLanes, n, ghost,
                             shift, ws.flux.data());

  for (int i = 0; i < n; ++i)
    P::load(ws.out.data() + static_cast<std::ptrdiff_t>(i) * kLanes)
        .store(dst + static_cast<std::ptrdiff_t>(i) * dst_cell_stride);
}

}  // namespace v6d::vlasov
