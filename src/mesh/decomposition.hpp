// Brick decomposition of a global periodic grid over a Cartesian rank
// topology (paper §5.1.3: physical space is decomposed evenly along each
// axis; velocity space never is).
#pragma once

#include <array>

namespace v6d::mesh {

class BrickDecomposition {
 public:
  BrickDecomposition() = default;
  /// global[i] cells split over dims[i] ranks along axis i; this rank sits
  /// at coords[i].  Remainder cells go to the lowest-coordinate ranks.
  BrickDecomposition(std::array<int, 3> global, std::array<int, 3> dims,
                     std::array<int, 3> coords);

  std::array<int, 3> global() const { return global_; }
  std::array<int, 3> dims() const { return dims_; }
  std::array<int, 3> coords() const { return coords_; }

  /// Local interior cell count along `axis`.
  int local_n(int axis) const { return local_n_[static_cast<std::size_t>(axis)]; }
  /// Global index of the first local cell along `axis`.
  int offset(int axis) const { return offset_[static_cast<std::size_t>(axis)]; }

  /// Extents of an arbitrary rank's brick along an axis.
  static int share(int global, int parts, int coord);
  static int share_offset(int global, int parts, int coord);

  /// Which rank coordinate owns global cell index g along an axis.
  static int owner_coord(int global, int parts, int g);

  /// Whether a nonempty brick of `extent` cells at `offset` lies inside a
  /// grid of `global` cells: checks placements read from a message or file.
  static bool fits(std::array<int, 3> offset, std::array<int, 3> extent,
                   std::array<int, 3> global) {
    for (std::size_t a = 0; a < 3; ++a)
      if (offset[a] < 0 || extent[a] < 1 || extent[a] > global[a] - offset[a])
        return false;
    return true;
  }

 private:
  std::array<int, 3> global_{};
  std::array<int, 3> dims_{};
  std::array<int, 3> coords_{};
  std::array<int, 3> local_n_{};
  std::array<int, 3> offset_{};
};

}  // namespace v6d::mesh
