// The 3-D line pass and the serial 3-D complex FFT over row-major
// (z-contiguous) arrays.
//
// transform_axis() is the one loop over 3-D data that calls FftPlan:
// Fft3D is three calls to it per direction, and fft::ParallelFft3D runs
// the same calls on its slabs around a transpose, so a world-1 distributed
// transform is bit-identical to this serial one.  It hands the plan
// batches of FftPlan::kBatch neighbouring lines (z lines, or y / x lines
// at adjacent z) and runs the batches under OpenMP, each thread in its own
// scratch.  Every line is transformed by the same operations whichever
// batch, lane or thread carries it, so the result does not depend on the
// thread count.
#pragma once

#include <array>

#include "fft/fft1d.hpp"

namespace v6d::fft {

/// Transforms in place every line along `axis` of a row-major,
/// z-contiguous array of extents `shape` (plan.size() == shape[axis]).
/// The inverse is unnormalized.
void transform_axis(const FftPlan& plan, cplx* data, std::array<int, 3> shape,
                    int axis, bool inverse);

class Fft3D {
 public:
  Fft3D(int nx, int ny, int nz);

  std::size_t size() const {
    return static_cast<std::size_t>(shape_[0]) * shape_[1] * shape_[2];
  }

  /// In-place transforms; data is nx*ny*nz row-major, z contiguous,
  /// and the spectrum keeps that [x][y][z] layout.
  void forward(cplx* data) const;
  void inverse_normalized(cplx* data) const;

 private:
  std::array<int, 3> shape_;
  FftPlan px_, py_, pz_;
};

}  // namespace v6d::fft
