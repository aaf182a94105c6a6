// Grid3D<T>: a 3-D scalar field with ghost layers.
//
// Used for PM mesh quantities (density, potential, force components) and for
// the moment fields of the Vlasov solver.  Row-major with z contiguous,
// matching the phase-space spatial layout so deposits and interpolation
// traverse memory in the same order.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/aligned.hpp"

namespace v6d::mesh {

template <class T>
class Grid3D {
 public:
  Grid3D() = default;
  Grid3D(int nx, int ny, int nz, int ghost = 0)
      : nx_(nx), ny_(ny), nz_(nz), ghost_(ghost),
        sy_(nz + 2 * ghost),
        sx_(static_cast<std::ptrdiff_t>(ny + 2 * ghost) * (nz + 2 * ghost)),
        data_(static_cast<std::size_t>(nx + 2 * ghost) * (ny + 2 * ghost) *
                  (nz + 2 * ghost),
              T{}) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int ghost() const { return ghost_; }
  std::size_t interior_size() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  /// Elements between neighbouring cells along x and y (z is contiguous).
  std::ptrdiff_t stride_x() const { return sx_; }
  std::ptrdiff_t stride_y() const { return sy_; }

  /// Interior indices 0..n-1; ghosts at -ghost..n+ghost-1.
  T& at(int i, int j, int k) { return data_[index(i, j, k)]; }
  const T& at(int i, int j, int k) const { return data_[index(i, j, k)]; }

  /// Periodic interior access (wraps any integer index).
  T& atp(int i, int j, int k) {
    return at(wrap(i, nx_), wrap(j, ny_), wrap(k, nz_));
  }
  const T& atp(int i, int j, int k) const {
    return at(wrap(i, nx_), wrap(j, ny_), wrap(k, nz_));
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Copy ghost layers from the periodic image of the interior.
  void fill_ghosts_periodic() {
    if (ghost_ == 0) return;
    const int g = ghost_;
    for (int i = -g; i < nx_ + g; ++i)
      for (int j = -g; j < ny_ + g; ++j)
        for (int k = -g; k < nz_ + g; ++k) {
          const bool interior =
              i >= 0 && i < nx_ && j >= 0 && j < ny_ && k >= 0 && k < nz_;
          if (!interior)
            at(i, j, k) = at(wrap(i, nx_), wrap(j, ny_), wrap(k, nz_));
        }
  }

  /// Accumulate ghost-layer contributions back onto their periodic interior
  /// images and zero the ghosts (used after scatter-style deposits).
  void fold_ghosts_periodic() {
    if (ghost_ == 0) return;
    const int g = ghost_;
    for (int i = -g; i < nx_ + g; ++i)
      for (int j = -g; j < ny_ + g; ++j)
        for (int k = -g; k < nz_ + g; ++k) {
          const bool interior =
              i >= 0 && i < nx_ && j >= 0 && j < ny_ && k >= 0 && k < nz_;
          if (!interior) {
            at(wrap(i, nx_), wrap(j, ny_), wrap(k, nz_)) += at(i, j, k);
            at(i, j, k) = T{};
          }
        }
  }

  double sum_interior() const {
    double s = 0.0;
    for (int i = 0; i < nx_; ++i)
      for (int j = 0; j < ny_; ++j)
        for (int k = 0; k < nz_; ++k) s += static_cast<double>(at(i, j, k));
    return s;
  }

  T* raw() { return data_.data(); }
  const T* raw() const { return data_.data(); }
  std::size_t raw_size() const { return data_.size(); }

  static int wrap(int i, int n) { return ((i % n) + n) % n; }

 private:
  std::size_t index(int i, int j, int k) const {
    return static_cast<std::size_t>(i + ghost_) * sx_ +
           static_cast<std::size_t>(j + ghost_) * sy_ +
           static_cast<std::size_t>(k + ghost_);
  }

  int nx_ = 0, ny_ = 0, nz_ = 0, ghost_ = 0;
  std::ptrdiff_t sy_ = 0, sx_ = 0;
  AlignedVector<T> data_;
};

using GridF = Grid3D<float>;
using GridD = Grid3D<double>;

}  // namespace v6d::mesh
