#include "vlasov/advect_kernels.hpp"

namespace v6d::vlasov {

void AdvectWorkspace::ensure(int n, int ghost, int lanes, int out_lanes,
                             int group) {
  const std::size_t need_in =
      static_cast<std::size_t>(n + 2 * ghost) * lanes;
  const std::size_t need_out = static_cast<std::size_t>(n) * out_lanes;
  const std::size_t need_flux = static_cast<std::size_t>(n + 1) * group;
  if (in.size() < need_in) in.resize(need_in);
  if (out.size() < need_out) out.resize(need_out);
  if (flux.size() < need_flux) flux.resize(need_flux);
}

void advect_line_strided_scalar(const float* src, std::ptrdiff_t stride,
                                float* dst, std::ptrdiff_t dst_stride, int n,
                                double xi, Limiter limiter,
                                AdvectWorkspace& ws) {
  const int ghost = required_ghost(xi);
  ws.ensure(n, ghost, 1, 1, 1);
  float* in = ws.in.data();
  for (int k = -ghost; k < n + ghost; ++k)
    in[k + ghost] = k >= 0 && k < n ? src[k * stride] : 0.0f;
  advect_line_scalar(in, ws.out.data(), n, ghost, xi, limiter);
  for (int i = 0; i < n; ++i) dst[i * dst_stride] = ws.out[i];
}

}  // namespace v6d::vlasov
