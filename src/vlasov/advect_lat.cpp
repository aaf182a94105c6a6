#include "vlasov/advect_kernels.hpp"
#include "vlasov/advect_vec_impl.hpp"

namespace v6d::vlasov {

void advect_lines_lat_gather(const float* src, std::ptrdiff_t line_stride,
                             float* dst, std::ptrdiff_t dst_line_stride,
                             int n, const LaneShift& shift,
                             AdvectWorkspace& ws) {
  constexpr int L = kSweepLanes;
  const int ghost = shift.shape.max_ghost;
  ws.ensure(n, ghost, L, L, L);
  // The paper's Fig.-2 data layout: pack lanes one element at a time from
  // strided lines.  Same arithmetic as advect_lines_lat, inefficient loads.
  float* in = ws.in.data();
  for (int k = -ghost; k < n + ghost; ++k) {
    const bool interior = k >= 0 && k < n;
    for (int l = 0; l < L; ++l)
      in[static_cast<std::ptrdiff_t>(k + ghost) * L + l] =
          interior ? src[static_cast<std::ptrdiff_t>(l) * line_stride + k]
                   : 0.0f;
  }
  detail::sl_mpp5_kernel_vec<L>(in, L, ws.out.data(), L, n, ghost,
                                LineShift<L>::uniform(shift), ws.flux.data());
  for (int t = 0; t < n; ++t)
    for (int l = 0; l < L; ++l)
      dst[static_cast<std::ptrdiff_t>(l) * dst_line_stride + t] =
          ws.out[static_cast<std::ptrdiff_t>(t) * L + l];
}

}  // namespace v6d::vlasov
