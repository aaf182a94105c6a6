// Ghost faces: the one description of ghost-cell geometry.
//
// A face is the ghost-width slab of cells next to a brick boundary along
// one axis.  A *fill* copies interior cells into the ghosts across a face
// (force-grid ghosts before CIC sampling; phase-space faces are only
// packed, and the position sweep reads them in pack order); a *fold* adds
// ghost cells onto the interior across it and zeroes them (CIC deposits
// spilled over a brick boundary).  GhostFaces describes each axis' face
// box and owns the one loop that packs, unpacks and periodically wraps
// faces.  It does no communication: the plans of mesh/halo_plan.hpp post
// the messages.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "mesh/grid.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::mesh {

enum class GhostOp { kFill, kFold };

// What a face spans transversally: the interior (the 1-D position
// stencil), or also the lower axes' ghosts, which an axis chain (fill
// x -> z, fold z -> x) has filled or not yet folded (the CIC stencil).
enum class FaceSpan { kInterior, kLowerGhosts };

/// A field's cells: `width` contiguous elements each (a phase-space
/// velocity block, one mesh value), `stride` elements apart per axis.
template <class T>
struct CellView {
  T* origin = nullptr;  // cell (0, 0, 0)
  std::array<std::ptrdiff_t, 3> stride{};
  std::size_t width = 1;
};

inline CellView<float> cell_view(vlasov::PhaseSpace& f) {
  const auto w = static_cast<std::ptrdiff_t>(f.block_size());
  return {f.block(0, 0, 0),
          {static_cast<std::ptrdiff_t>(f.block_stride_x()) * w,
           static_cast<std::ptrdiff_t>(f.block_stride_y()) * w, w},
          f.block_size()};
}

inline CellView<double> cell_view(Grid3D<double>& grid) {
  return {&grid.at(0, 0, 0), {grid.stride_x(), grid.stride_y(), 1}, 1};
}

class GhostFaces {
 public:
  /// First cell and extent of a face along the two transverse axes.
  struct Box { std::array<int, 2> first{}, n{}; };

  GhostFaces() = default;
  GhostFaces(const std::array<int, 3>& n, int ghost, FaceSpan span)
      : n_(n), ghost_(ghost), span_(span) {}

  int ghost() const { return ghost_; }
  int extent(int axis) const { return n_[static_cast<std::size_t>(axis)]; }
  Box box(int axis) const {
    Box box;
    for (std::size_t k = 0; k < 2; ++k) {
      const int t = transverse(axis)[k];
      const bool ghosts = span_ == FaceSpan::kLowerGhosts && t < axis;
      box.first[k] = ghosts ? -ghost_ : 0;
      box.n[k] = extent(t) + (ghosts ? 2 * ghost_ : 0);
    }
    return box;
  }
  std::size_t face_cells(int axis) const {
    const Box b = box(axis);
    return static_cast<std::size_t>(ghost_) * b.n[0] * b.n[1];
  }

  /// The thin-axis rule: throws std::invalid_argument if an axis split
  /// over more than one rank is thinner than the ghost width.
  void require_fits(const std::array<int, 3>& ranks) const {
    for (int axis = 0; axis < 3; ++axis)
      if (ranks[static_cast<std::size_t>(axis)] > 1 && extent(axis) < ghost_)
        throw std::invalid_argument(
            "ghost faces: local extent " + std::to_string(extent(axis)) +
            " along axis " + std::to_string(axis) +
            " is smaller than the ghost width " + std::to_string(ghost_) +
            "; use fewer ranks along this axis");
  }

  /// Pack the face `op` sends across `side` (0: low, 1: high) of `axis`:
  /// a fill's interior layers next to it, a fold's ghost layers beyond it
  /// (zeroed as they go).
  template <class T>
  void pack(GhostOp op, CellView<T> f, int axis, int side, T* buf) const {
    const bool fold = op == GhostOp::kFold;
    for_each_cell(op, f, axis, first_layer(axis, side, fold),
                  [=, w = f.width](int, T* cell, std::size_t o) {
                    std::copy_n(cell, w, buf + o);
                    if (fold) std::fill_n(cell, w, T{});
                  });
  }
  /// Unpack the face received across `side`: a fill copies it into the
  /// ghost layers, a fold adds it onto the interior layers.
  template <class T>
  void unpack(GhostOp op, CellView<T> f, int axis, int side,
              const T* buf) const {
    const bool fold = op == GhostOp::kFold;
    for_each_cell(op, f, axis, first_layer(axis, side, !fold),
                  [=, w = f.width](int, T* cell, std::size_t o) {
                    if (fold)
                      add_n(buf + o, w, cell);
                    else
                      std::copy_n(buf + o, w, cell);
                  });
  }
  /// `op` along an axis the brick spans whole: the ghosts are copied from
  /// (fill) or added onto (fold) their periodic image, which the modulo
  /// finds even for extents below the ghost width.
  template <class T>
  void wrap(GhostOp op, CellView<T> f, int axis) const {
    const bool fold = op == GhostOp::kFold;
    const int n = extent(axis);
    const std::ptrdiff_t step = f.stride[static_cast<std::size_t>(axis)];
    for (int side : {0, 1})
      for_each_cell(op, f, axis, first_layer(axis, side, true),
                    [=, w = f.width](int a, T* ghost, std::size_t) {
                      T* image = ghost + (Grid3D<T>::wrap(a, n) - a) * step;
                      if (fold) {
                        add_n(ghost, w, image);
                        std::fill_n(ghost, w, T{});
                      } else {
                        std::copy_n(image, w, ghost);
                      }
                    });
  }

 private:
  static constexpr std::array<int, 2> transverse(int axis) {
    return {axis == 0 ? 1 : 0, axis == 2 ? 1 : 2};
  }
  template <class T>
  static void add_n(const T* from, std::size_t w, T* to) {
    for (std::size_t e = 0; e < w; ++e) to[e] += from[e];
  }
  // First ghost layer beyond `side`, or first interior layer next to it.
  int first_layer(int axis, int side, bool ghosts) const {
    if (side == 0) return ghosts ? -ghost_ : 0;
    return extent(axis) - (ghosts ? 0 : ghost_);
  }

  // The one loop, and the one map from (axis, layer, transverse) to a
  // cell: visits the ghost-width layers of `axis` from layer `first` in
  // message-buffer order, as visit(layer, cell, buffer offset).  Fills of
  // big faces (phase-space blocks) run on the OpenMP team.  A mesh face is
  // a few hundred values, cheaper to copy than to fork a team for, and a
  // fold stays on one thread because along a thin axis several ghost
  // layers add onto one cell, in the serial oracle's order.
  template <class T, class Visit>
  void for_each_cell([[maybe_unused]] GhostOp op, CellView<T> f, int axis,
                     int first, Visit visit) const {
    const Box bx = box(axis);
    const auto t = transverse(axis);
    const std::ptrdiff_t sa = f.stride[static_cast<std::size_t>(axis)];
    const std::ptrdiff_t sb = f.stride[static_cast<std::size_t>(t[0])];
    const std::ptrdiff_t sc = f.stride[static_cast<std::size_t>(t[1])];
#ifdef _OPENMP
    const bool threaded =
        op == GhostOp::kFill && face_cells(axis) * f.width >= (1u << 14);
#pragma omp parallel for collapse(2) schedule(static) if (threaded)
#endif
    for (int layer = 0; layer < ghost_; ++layer)
      for (int b = 0; b < bx.n[0]; ++b) {
        const int a = first + layer;
        T* row = f.origin + a * sa + (bx.first[0] + b) * sb +
                 bx.first[1] * sc;
        const std::size_t o =
            (static_cast<std::size_t>(layer) * bx.n[0] + b) * bx.n[1];
        for (int c = 0; c < bx.n[1]; ++c)
          visit(a, row + c * sc, (o + static_cast<std::size_t>(c)) * f.width);
      }
  }

  std::array<int, 3> n_{};
  int ghost_ = 0;
  FaceSpan span_ = FaceSpan::kInterior;
};

}  // namespace v6d::mesh
