// Discretized 6-D distribution function f(x, y, z, ux, uy, uz).
//
// Layout follows the paper's List 1: one velocity block of
// nux * nuy * nuz single-precision values per spatial cell, spatial cells
// outermost, uz the memory-contiguous axis.  (The paper stores the cached
// density / mean-velocity scalars inline in the per-cell struct; we keep
// them in separate arrays so velocity blocks stay 64-byte aligned for the
// SIMD kernels — noted as a deliberate deviation in DESIGN.md.)
//
// Spatial cells carry `ghost` layers of ghost blocks on every side; the
// position sweep along an axis reads that axis' ghosts, which the drift's
// HaloFiller refills first.  Velocity space carries no ghosts — f has
// compact support inside the velocity cube and the sweep kernels zero-pad.
#pragma once

#include <cstddef>

#include "common/aligned.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::vlasov {

/// Uniform-grid geometry of the local phase-space box.
struct PhaseSpaceGeometry {
  // Physical extents (comoving length and canonical velocity units).
  double x0 = 0.0, y0 = 0.0, z0 = 0.0;  // local box origin
  double dx = 1.0, dy = 1.0, dz = 1.0;  // spatial cell sizes
  double umax = 1.0;                    // velocity domain is [-umax, umax)
  double dux = 1.0, duy = 1.0, duz = 1.0;

  /// Cell-center coordinates.
  double x(int i) const { return x0 + (i + 0.5) * dx; }
  double y(int j) const { return y0 + (j + 0.5) * dy; }
  double z(int k) const { return z0 + (k + 0.5) * dz; }
  double ux(int a) const { return -umax + (a + 0.5) * dux; }
  double uy(int b) const { return -umax + (b + 0.5) * duy; }
  double uz(int c) const { return -umax + (c + 0.5) * duz; }

  double du3() const { return dux * duy * duz; }
  double dvol() const { return dx * dy * dz; }
};

struct PhaseSpaceDims {
  int nx = 0, ny = 0, nz = 0;     // local interior spatial cells
  int nux = 0, nuy = 0, nuz = 0;  // velocity cells (never decomposed)
  int ghost = kStencilGhost;      // spatial ghost layers

  std::size_t spatial_cells() const {
    return std::size_t(nx) * ny * nz;
  }
  std::size_t velocity_cells() const {
    return std::size_t(nux) * nuy * nuz;
  }
  std::size_t total_interior() const {
    return spatial_cells() * velocity_cells();
  }
};

class PhaseSpace {
 public:
  PhaseSpace() = default;
  PhaseSpace(const PhaseSpaceDims& dims, const PhaseSpaceGeometry& geom);

  const PhaseSpaceDims& dims() const { return dims_; }
  const PhaseSpaceGeometry& geom() const { return geom_; }
  PhaseSpaceGeometry& geom() { return geom_; }

  /// Velocity block of spatial cell (ix, iy, iz); interior indices are
  /// 0..n-1, ghosts extend to -ghost..n+ghost-1.
  float* block(int ix, int iy, int iz) {
    return data_.data() + block_index(ix, iy, iz) * block_size();
  }
  const float* block(int ix, int iy, int iz) const {
    return data_.data() + block_index(ix, iy, iz) * block_size();
  }

  /// f at a full 6-D index (interior or ghost spatial cell).
  float& at(int ix, int iy, int iz, int a, int b, int c) {
    return block(ix, iy, iz)[velocity_index(a, b, c)];
  }
  float at(int ix, int iy, int iz, int a, int b, int c) const {
    return block(ix, iy, iz)[velocity_index(a, b, c)];
  }

  std::size_t velocity_index(int a, int b, int c) const {
    return (std::size_t(a) * dims_.nuy + b) * dims_.nuz + c;
  }
  std::size_t block_size() const { return dims_.velocity_cells(); }
  /// Stride (in blocks) between spatial cells along each axis.
  std::size_t block_stride_x() const {
    return std::size_t(dims_.ny + 2 * dims_.ghost) *
           (dims_.nz + 2 * dims_.ghost);
  }
  std::size_t block_stride_y() const {
    return std::size_t(dims_.nz + 2 * dims_.ghost);
  }
  std::size_t block_stride_z() const { return 1; }

  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }
  std::size_t raw_size() const { return data_.size(); }

  /// Total mass sum over interior cells: sum f * du^3 * dx^3 (double acc).
  double total_mass() const;
  /// Minimum of f over the interior (positivity checks).
  float min_interior() const;

  void fill(float value);

 private:
  std::size_t block_index(int ix, int iy, int iz) const {
    const int g = dims_.ghost;
    return (std::size_t(ix + g) * (dims_.ny + 2 * g) + (iy + g)) *
               (dims_.nz + 2 * g) +
           (iz + g);
  }

  PhaseSpaceDims dims_;
  PhaseSpaceGeometry geom_;
  AlignedVector<float> data_;
};

}  // namespace v6d::vlasov
