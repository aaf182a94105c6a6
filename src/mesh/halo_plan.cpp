#include "mesh/halo_plan.hpp"

#include <utility>

#include "common/timer.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::mesh {

template <class T>
void FaceMessages<T>::post(comm::CartTopology& cart, int tag_base,
                           const GhostFaces& faces, GhostOp op, CellView<T> f,
                           int axis) {
  auto& comm = cart.comm();
  const auto nbr = cart.neighbors(axis);
  const std::size_t count = faces.face_cells(axis) * f.width;
  // dir 0: the high face leaves towards +axis and the low neighbor's
  // arrives across the low side; dir 1 the reverse.  Sends are buffered,
  // so posting both before any receive cannot deadlock.
  for (int dir : {0, 1}) {
    const auto out = static_cast<std::size_t>(1 - dir), in = 1 - out;
    std::vector<std::uint8_t> payload(count * sizeof(T));
    faces.pack(op, f, axis, 1 - dir, reinterpret_cast<T*>(payload.data()));
    comm.send(nbr[out], tag_base + axis * 4 + dir, std::move(payload));
    from[in] = comm.irecv(nbr[in], tag_base + axis * 4 + dir);
  }
}

HaloPlan::HaloPlan(comm::CartTopology& cart,
                   const vlasov::PhaseSpaceDims& dims, int tag_base)
    : cart_(&cart), tag_base_(tag_base),
      faces_({dims.nx, dims.ny, dims.nz}, vlasov::kStencilGhost,
             FaceSpan::kInterior) {
  faces_.require_fits(cart.dims());
  for (int axis = 0; axis < 3; ++axis) {
    auto& ap = axes_[static_cast<std::size_t>(axis)];
    const auto box = faces_.box(axis);
    ap.decomposed = cart.dims()[static_cast<std::size_t>(axis)] > 1;
    ap.n = faces_.extent(axis);
    ap.t1n = box.n[0];
    ap.t2n = box.n[1];
    ap.face_floats = faces_.face_cells(axis) * dims.velocity_cells();
  }
}

void HaloPlan::begin_axis(vlasov::PhaseSpace& f, int axis) {
  ScopedTimer region("halo-begin");
  if (axes_[static_cast<std::size_t>(axis)].decomposed)
    messages_[static_cast<std::size_t>(axis)].post(
        *cart_, tag_base_, faces_, GhostOp::kFill, cell_view(f), axis);
}

vlasov::AxisFaces HaloPlan::finish_axis(int axis) {
  ScopedTimer region("halo-finish");
  const auto ax = static_cast<std::size_t>(axis);
  vlasov::AxisFaces faces;
  if (!axes_[ax].decomposed) return faces;
  for (std::size_t side : {0u, 1u}) {
    ScopedTimer wait("halo-wait");
    faces.payloads[side] =
        messages_[ax].from[side].wait(axes_[ax].face_floats * sizeof(float));
  }
  faces.lo = reinterpret_cast<const float*>(faces.payloads[0].data());
  faces.hi = reinterpret_cast<const float*>(faces.payloads[1].data());
  return faces;
}

GridGhostChain::GridGhostChain(comm::CartTopology& cart,
                               const Grid3D<double>& shape, int tag_base,
                               GhostOp op)
    : cart_(&cart), tag_base_(tag_base), op_(op),
      faces_({shape.nx(), shape.ny(), shape.nz()}, shape.ghost(),
             FaceSpan::kLowerGhosts) {
  faces_.require_fits(cart.dims());
}

void GridGhostChain::begin_chain(Grid3D<double>& grid) {
  pending_axis_ = -1;
  if (op_ == GhostOp::kFold && cart_->comm().size() == 1) {
    // The single-rank fold is the direct periodic scan (Grid3D's own
    // summation order), not the axis-by-axis chain.
    grid.fold_ghosts_periodic();
    return;
  }
  if (faces_.ghost() > 0) run_from(grid, step() > 0 ? 0 : 2);
}

// Runs the chain from `axis` on, wrapping undecomposed axes, until a
// decomposed axis has posted its faces.
void GridGhostChain::run_from(Grid3D<double>& grid, int axis) {
  for (; axis >= 0 && axis < 3; axis += step()) {
    if (cart_->dims()[static_cast<std::size_t>(axis)] == 1) {
      faces_.wrap(op_, cell_view(grid), axis);
      continue;
    }
    messages_.post(*cart_, tag_base_, faces_, op_, cell_view(grid), axis);
    pending_axis_ = axis;
    return;
  }
}

void GridGhostChain::finish_chain(Grid3D<double>& grid) {
  while (pending_axis_ >= 0) {
    const int axis = std::exchange(pending_axis_, -1);
    const std::size_t bytes = faces_.face_cells(axis) * sizeof(double);
    for (int side : {0, 1}) {
      std::vector<std::uint8_t> payload;
      {
        ScopedTimer wait(op_ == GhostOp::kFold ? "fold-wait" : "fill-wait");
        payload = messages_.from[static_cast<std::size_t>(side)].wait(bytes);
      }
      faces_.unpack(op_, cell_view(grid), axis, side,
                    reinterpret_cast<const double*>(payload.data()));
    }
    run_from(grid, axis + step());
  }
}

void GridFoldPlan::begin(Grid3D<double>& grid) {
  ScopedTimer region("fold-begin");
  begin_chain(grid);
}

void GridFoldPlan::finish(Grid3D<double>& grid) {
  ScopedTimer region("fold-finish");
  finish_chain(grid);
}

}  // namespace v6d::mesh
