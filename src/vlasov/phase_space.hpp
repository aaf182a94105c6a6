// Discretized 6-D distribution function f(x, y, z, ux, uy, uz).
//
// Layout follows the paper's List 1: one velocity block of
// nux * nuy * nuz single-precision values per spatial cell, spatial cells
// outermost, uz the memory-contiguous axis.  (The paper stores the cached
// density / mean-velocity scalars inline in the per-cell struct; we keep
// them in separate arrays so velocity blocks stay 64-byte aligned for the
// SIMD kernels — see "Deviations from the paper" in docs/ARCHITECTURE.md.)
//
// Only interior blocks are stored: a position sweep reads its ghosts from
// the faces the drift's HaloFiller returns or from the line's periodic
// image (AxisFaces below).  Velocity space has no ghosts either — f has
// compact support inside the velocity cube and the sweep kernels zero-pad.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"

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

/// The ghosts of a position sweep along one axis: `lo` holds cells -3..-1
/// and `hi` cells n..n+2 of every line, in mesh::GhostFaces pack order
/// (layer, lower transverse axis, upper transverse axis, velocity block).
/// Null faces: ghost cell k is line cell ((k % n) + n) % n.
struct AxisFaces {
  const float* lo = nullptr;
  const float* hi = nullptr;
  /// The received messages `lo` and `hi` point into, when the faces own
  /// them (mesh::HaloPlan::finish_axis): they live as long as the faces,
  /// so a sweep's faces are freed when the sweep returns.  Pass owning
  /// faces on by move: a copy would duplicate the payloads and still
  /// point into the original's.
  std::array<std::vector<std::uint8_t>, 2> payloads;
};

class PhaseSpace {
 public:
  PhaseSpace() = default;
  PhaseSpace(const PhaseSpaceDims& dims, const PhaseSpaceGeometry& geom);

  const PhaseSpaceDims& dims() const { return dims_; }
  const PhaseSpaceGeometry& geom() const { return geom_; }
  PhaseSpaceGeometry& geom() { return geom_; }

  /// Velocity block of spatial cell (ix, iy, iz), 0 <= ix < nx etc.
  float* block(int ix, int iy, int iz) {
    return data_.data() + block_index(ix, iy, iz) * block_size();
  }
  const float* block(int ix, int iy, int iz) const {
    return data_.data() + block_index(ix, iy, iz) * block_size();
  }

  /// f at a full 6-D index.
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
    return std::size_t(dims_.ny) * dims_.nz;
  }
  std::size_t block_stride_y() const { return std::size_t(dims_.nz); }
  std::size_t block_stride_z() const { return 1; }

  /// Every block in (ix, iy, iz) order: total_interior() floats.
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }
  std::size_t raw_size() const { return data_.size(); }

  /// Total mass: sum f * du^3 * dx^3 (double accumulation, per block).
  double total_mass() const;
  /// Minimum of f (positivity checks).
  float min_interior() const;

  void fill(float value);

 private:
  std::size_t block_index(int ix, int iy, int iz) const {
    return (std::size_t(ix) * dims_.ny + iy) * dims_.nz + iz;
  }

  PhaseSpaceDims dims_;
  PhaseSpaceGeometry geom_;
  AlignedVector<float> data_;
};

}  // namespace v6d::vlasov
