// Precomputed plans for the ghost exchanges of the distributed stepping
// path (paper §5.1.3: halo exchange is the dominant non-compute cost;
// hiding it behind interior updates is what makes the Fugaku runs scale).
// mesh::GhostFaces packs, unpacks and wraps the faces; the plans send
// them, each under the tag `tag_base + axis * 4 + dir` (dir 0: travelling
// +axis, 1: -axis), and reject a decomposed axis thinner than the ghost
// width at construction, before any message.  A plan keeps geometry and
// receive handles, no message buffers: each face is packed straight into
// the payload it sends, and read in place from the payload it arrives in.
//
// Each plan splits its data movement into begin/finish halves, so the
// distributed solver can let independent compute run while messages fly;
// either placement moves the same bytes and gives bit-identical fields.
// take_wait() returns the time spent *blocked* in message waits, the
// exposed communication cost the overlap metrics report.
//
//  * HaloPlan — the phase-space face pair a position sweep along one axis
//    reads (that axis' ghosts at interior transverse positions).
//    finish_axis() returns faces that own the two received payloads and
//    point into them; nothing is unpacked, and the plan keeps nothing.
//    Undecomposed axes exchange nothing.
//  * GridFillPlan / GridFoldPlan — the force-grid ghost fill before CIC
//    sampling and the deposit fold after CIC deposits.  The fold is the
//    fill's axis chain run backwards: interior faces are copied into the
//    ghosts x -> z, ghost faces added onto the interior z -> x.  Faces
//    span the lower axes' ghosts, so edges and corners fill transitively
//    and every deposit lands on its owner once.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "comm/cart.hpp"
#include "mesh/ghost_faces.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::mesh {

/// The two face messages of one axis, indexed by side (0: low, 1: high):
/// post() packs both faces into the payloads it sends and posts both
/// receives.
template <class T>
struct FaceMessages {
  std::array<comm::Communicator::RecvHandle, 2> from;

  void post(comm::CartTopology& cart, int tag_base, const GhostFaces& faces,
            GhostOp op, CellView<T> f, int axis);
};

class HaloPlan {
 public:
  struct AxisPlan {
    bool decomposed = false;  // more than one rank along the axis
    int n = 0;                // local interior extent along the axis
    int t1n = 0, t2n = 0;     // interior transverse extents (ascending axes)
    std::size_t face_floats = 0;  // ghost * t1n * t2n * block_size
  };

  HaloPlan() = default;
  /// Plan the single-axis face exchanges for bricks of shape `dims` on
  /// `cart`, kStencilGhost layers deep.  `tag_base` must be distinct from
  /// every other exchange kind live on the same communicator.  Throws
  /// std::invalid_argument if a decomposed axis is thinner than the ghost
  /// width.
  HaloPlan(comm::CartTopology& cart, const vlasov::PhaseSpaceDims& dims,
           int tag_base);

  const AxisPlan& axis(int a) const {
    return axes_[static_cast<std::size_t>(a)];
  }

  /// Pack + send both faces of `axis` and post their receives; nothing on
  /// an undecomposed axis.  Packing copies the faces, so the caller may
  /// mutate f as soon as begin_axis() returns.
  void begin_axis(vlasov::PhaseSpace& f, int axis);
  /// Wait for both faces of `axis` and return them: `lo` from the low
  /// neighbor, `hi` from the high one, each pointing into its received
  /// payload, which the returned faces own (valid as long as they live).
  /// Throws std::runtime_error if a payload is not one face long.  Null
  /// faces on an undecomposed axis.
  vlasov::AxisFaces finish_axis(int axis);

  double take_wait() { return std::exchange(wait_s_, 0.0); }

 private:
  comm::CartTopology* cart_ = nullptr;
  int tag_base_ = 0;
  GhostFaces faces_;
  std::array<AxisPlan, 3> axes_{};
  std::array<FaceMessages<float>, 3> messages_;
  double wait_s_ = 0.0;
};

/// The axis chain of GridFillPlan and GridFoldPlan: begin() runs it
/// through any local-wrap axes and stops after posting the first
/// decomposed axis' faces; finish() completes that axis and runs the rest.
/// The caller must not touch the grid in between.
class GridGhostChain {
 public:
  double take_wait() { return std::exchange(wait_s_, 0.0); }

 protected:
  GridGhostChain() = default;
  GridGhostChain(comm::CartTopology& cart, const Grid3D<double>& shape,
                 int tag_base, GhostOp op);
  void begin_chain(Grid3D<double>& grid);
  void finish_chain(Grid3D<double>& grid);

 private:
  int step() const { return op_ == GhostOp::kFill ? 1 : -1; }
  void run_from(Grid3D<double>& grid, int axis);

  comm::CartTopology* cart_ = nullptr;
  int tag_base_ = 0;
  GhostOp op_ = GhostOp::kFill;
  GhostFaces faces_;
  int pending_axis_ = -1;
  FaceMessages<double> messages_;
  double wait_s_ = 0.0;
};

class GridFillPlan : public GridGhostChain {
 public:
  GridFillPlan() = default;
  GridFillPlan(comm::CartTopology& cart, const Grid3D<double>& shape,
               int tag_base)
      : GridGhostChain(cart, shape, tag_base, GhostOp::kFill) {}
  void begin(Grid3D<double>& grid) { begin_chain(grid); }
  void finish(Grid3D<double>& grid) { finish_chain(grid); }
};

class GridFoldPlan : public GridGhostChain {
 public:
  GridFoldPlan() = default;
  GridFoldPlan(comm::CartTopology& cart, const Grid3D<double>& shape,
               int tag_base)
      : GridGhostChain(cart, shape, tag_base, GhostOp::kFold) {}
  /// Single-rank topologies run the whole periodic fold here.
  void begin(Grid3D<double>& grid);
  void finish(Grid3D<double>& grid);
};

}  // namespace v6d::mesh
