#include "fft/fft3d.hpp"

#include <algorithm>
#include <cassert>

namespace v6d::fft {

void transform_axis(const FftPlan& plan, cplx* data, std::array<int, 3> shape,
                    int axis, bool inverse) {
  assert(plan.size() == shape[static_cast<std::size_t>(axis)]);
  constexpr int kBatch = FftPlan::kBatch;
  const std::ptrdiff_t nz = shape[2];
  const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(shape[1]) * nz;
  // The lines come in rows of `row_lines` lines `line_stride` apart: all
  // z lines form one row, and the y (x) lines at one x (y) form a row of
  // nz adjacent lines.  A batch is up to kBatch neighbours in one row.
  const bool along_z = axis == 2;
  const int rows = along_z ? 1 : axis == 1 ? shape[0] : shape[1];
  const int row_lines = along_z ? shape[0] * shape[1] : shape[2];
  const std::ptrdiff_t row_stride = axis == 1 ? sx : nz;
  const std::ptrdiff_t line_stride = along_z ? nz : 1;
  const std::ptrdiff_t stride = along_z ? 1 : axis == 1 ? nz : sx;
  const int batches_per_row = (row_lines + kBatch - 1) / kBatch;
  const int batches = rows * batches_per_row;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    FftPlan::Scratch scratch;
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (int b = 0; b < batches; ++b) {
      const int row = b / batches_per_row;
      const int line = (b % batches_per_row) * kBatch;
      plan.transform_lines(data + row * row_stride + line * line_stride,
                           std::min(kBatch, row_lines - line), line_stride,
                           stride, inverse, scratch);
    }
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
