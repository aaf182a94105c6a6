#include "fft/fft3d.hpp"

#include <cassert>
#include <vector>

namespace v6d::fft {

void transform_axis(const FftPlan& plan, cplx* data, std::array<int, 3> shape,
                    int axis, bool inverse) {
  assert(plan.size() == shape[static_cast<std::size_t>(axis)]);
  auto run = [&](cplx* line) {
    if (inverse)
      plan.inverse(line);
    else
      plan.forward(line);
  };
  const std::ptrdiff_t nz = shape[2];
  const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(shape[1]) * nz;
  if (axis == 2) {
    for (std::ptrdiff_t l = 0; l < shape[0] * sx; l += nz) run(data + l);
    return;
  }
  const int n = plan.size();
  const std::ptrdiff_t stride = axis == 0 ? sx : nz;
  const std::ptrdiff_t outer_stride = axis == 0 ? nz : sx;
  const int n_outer = axis == 0 ? shape[1] : shape[0];
  std::vector<cplx> line(static_cast<std::size_t>(n));
  for (int o = 0; o < n_outer; ++o)
    for (std::ptrdiff_t k = 0; k < nz; ++k) {
      cplx* base = data + o * outer_stride + k;
      for (int m = 0; m < n; ++m) line[m] = base[m * stride];
      run(line.data());
      for (int m = 0; m < n; ++m) base[m * stride] = line[m];
    }
}

Fft3D::Fft3D(int nx, int ny, int nz)
    : shape_{nx, ny, nz}, px_(nx), py_(ny), pz_(nz) {}

void Fft3D::forward(cplx* data) const {
  transform_axis(pz_, data, shape_, 2, false);
  transform_axis(py_, data, shape_, 1, false);
  transform_axis(px_, data, shape_, 0, false);
}

void Fft3D::inverse_normalized(cplx* data) const {
  transform_axis(px_, data, shape_, 0, true);
  transform_axis(py_, data, shape_, 1, true);
  transform_axis(pz_, data, shape_, 2, true);
  const double scale = 1.0 / static_cast<double>(size());
  const std::size_t total = size();
  for (std::size_t i = 0; i < total; ++i) data[i] *= scale;
}

}  // namespace v6d::fft
