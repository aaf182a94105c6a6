// The one move of a phase-space brick between rank layout and global
// layout (paper §5.1.3): extract_brick serves the slicing constructor,
// BrickPlacement serves HybridSolver::gather_into and checkpoint resume.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "vlasov/phase_space.hpp"

namespace v6d::vlasov {

/// A brick without ownership (a PhaseSpace, or an encoding decoded in
/// place); geom's origin is its corner in the enclosing phase space.
struct BrickView {
  PhaseSpaceDims dims;
  PhaseSpaceGeometry geom;
  const float* blocks = nullptr;  // every block, in (ix, iy, iz) order
};

inline BrickView view(const PhaseSpace& f) {
  return {f.dims(), f.geom(), f.raw()};
}

/// The brick of `global` with `extent` cells from cell `offset`, its
/// origin shifted there.
PhaseSpace extract_brick(const PhaseSpace& global, std::array<int, 3> offset,
                         std::array<int, 3> extent);

/// Places bricks into `target` by their geometry origins.  place() refuses
/// a brick whole (false; *error says why) that "does not fit" (another
/// velocity grid or other cell sizes, an origin off a cell corner, cells
/// outside the grid) or "overlaps" a placed one; complete() is false
/// while the placed bricks "do not cover" the grid.
class BrickPlacement {
 public:
  explicit BrickPlacement(PhaseSpace& target) : target_(target) {}
  bool place(const BrickView& brick, std::string* error);
  bool complete(std::string* error) const;

 private:
  PhaseSpace& target_;
  std::vector<std::array<int, 6>> placed_;  // cell offset, extent
  std::size_t cells_ = 0;                   // cells placed so far
};

}  // namespace v6d::vlasov
