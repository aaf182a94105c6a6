#include <algorithm>

#include "simd/transpose.hpp"
#include "vlasov/advect_kernels.hpp"
#include "vlasov/advect_vec_impl.hpp"

namespace v6d::vlasov {

namespace {

// Stage kLanes contiguous lines into a cell-major [n + 2g][kLanes] block.
// Interior cells move through in-register LxL transposes (the LAT step);
// the 2*ghost boundary cells are zero.
void fill_transposed(const float* src, std::ptrdiff_t line_stride, float* in,
                     int n, int ghost) {
  constexpr int L = kLanes;
  int t = 0;
  for (; t + L <= n; t += L)
    simd::transpose_tile<float, L>(src + t, line_stride,
                                   in + static_cast<std::ptrdiff_t>(ghost + t) * L, L);
  for (; t < n; ++t)
    for (int l = 0; l < L; ++l)
      in[static_cast<std::ptrdiff_t>(ghost + t) * L + l] =
          src[static_cast<std::ptrdiff_t>(l) * line_stride + t];
  std::fill_n(in, static_cast<std::ptrdiff_t>(ghost) * L, 0.0f);
  std::fill_n(in + static_cast<std::ptrdiff_t>(ghost + n) * L,
              static_cast<std::ptrdiff_t>(ghost) * L, 0.0f);
}

void write_back_transposed(const float* out, float* dst,
                           std::ptrdiff_t dst_line_stride, int n) {
  constexpr int L = kLanes;
  int t = 0;
  for (; t + L <= n; t += L)
    simd::transpose_tile<float, L>(out + static_cast<std::ptrdiff_t>(t) * L, L,
                                   dst + t, dst_line_stride);
  for (; t < n; ++t)
    for (int l = 0; l < L; ++l)
      dst[static_cast<std::ptrdiff_t>(l) * dst_line_stride + t] =
          out[static_cast<std::ptrdiff_t>(t) * L + l];
}

}  // namespace

void advect_lines_lat(const float* src, std::ptrdiff_t line_stride,
                      float* dst, std::ptrdiff_t dst_line_stride, int n,
                      const LineShift& shift, AdvectWorkspace& ws) {
  const int ghost = shift.max_ghost;
  ws.ensure(n, ghost, kLanes);
  fill_transposed(src, line_stride, ws.in.data(), n, ghost);
  detail::sl_mpp5_kernel_vec(ws.in.data(), kLanes, ws.out.data(), kLanes, n,
                             ghost, shift, ws.flux.data());
  write_back_transposed(ws.out.data(), dst, dst_line_stride, n);
}

void advect_lines_lat_gather(const float* src, std::ptrdiff_t line_stride,
                             float* dst, std::ptrdiff_t dst_line_stride,
                             int n, const LineShift& shift,
                             AdvectWorkspace& ws) {
  constexpr int L = kLanes;
  const int ghost = shift.max_ghost;
  ws.ensure(n, ghost, L);
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
  detail::sl_mpp5_kernel_vec(in, L, ws.out.data(), L, n, ghost, shift,
                             ws.flux.data());
  for (int t = 0; t < n; ++t)
    for (int l = 0; l < L; ++l)
      dst[static_cast<std::ptrdiff_t>(l) * dst_line_stride + t] =
          ws.out[static_cast<std::ptrdiff_t>(t) * L + l];
}

}  // namespace v6d::vlasov
