#include "mesh/halo_plan.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "common/trace.hpp"

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
    send[out].resize(count);
    faces.pack(op, f, axis, 1 - dir, send[out].data());
    comm.send(nbr[out], tag_base + axis * 4 + dir, send[out].data(), count);
    from[in] = comm.irecv(nbr[in], tag_base + axis * 4 + dir);
  }
}

HaloPlan::HaloPlan(comm::CartTopology& cart,
                   const vlasov::PhaseSpaceDims& dims, int tag_base)
    : cart_(&cart), tag_base_(tag_base),
      faces_({dims.nx, dims.ny, dims.nz}, dims.ghost, FaceSpan::kInterior) {
  faces_.require_fits(cart.dims());
  std::size_t max_face = 0;
  for (int axis = 0; axis < 3; ++axis) {
    auto& ap = axes_[static_cast<std::size_t>(axis)];
    const auto box = faces_.box(axis);
    ap.decomposed = cart.dims()[static_cast<std::size_t>(axis)] > 1;
    ap.n = faces_.extent(axis);
    ap.t1n = box.n[0];
    ap.t2n = box.n[1];
    ap.face_floats = faces_.face_cells(axis) * dims.velocity_cells();
    if (!ap.decomposed) continue;
    max_face = std::max(max_face, ap.face_floats);
    for (auto& buf : messages_[static_cast<std::size_t>(axis)].send)
      buf.resize(ap.face_floats);
  }
  recv_buf_.resize(max_face);
}

void HaloPlan::begin_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-begin");
  if (!axes_[static_cast<std::size_t>(axis)].decomposed)
    faces_.wrap(GhostOp::kFill, cell_view(f), axis);
  else
    messages_[static_cast<std::size_t>(axis)].post(
        *cart_, tag_base_, faces_, GhostOp::kFill, cell_view(f), axis);
}

void HaloPlan::finish_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-finish");
  const auto ax = static_cast<std::size_t>(axis);
  if (!axes_[ax].decomposed) return;
  for (int side : {0, 1}) {
    {
      trace::Span wait_span("halo-wait");
      Stopwatch w;
      messages_[ax].from[static_cast<std::size_t>(side)].wait_into(
          recv_buf_.data(), axes_[ax].face_floats);
      wait_s_ += w.seconds();
    }
    faces_.unpack(GhostOp::kFill, cell_view(f), axis, side,
                  recv_buf_.data());
  }
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
    const std::size_t count = faces_.face_cells(axis);
    recv_buf_.resize(count);
    for (int side : {0, 1}) {
      auto& from = messages_.from[static_cast<std::size_t>(side)];
      Stopwatch w;
      if (op_ == GhostOp::kFold) {
        trace::Span wait_span("fold-wait");
        from.wait_into(recv_buf_.data(), count);
      } else {  // the force-grid fill stays unspanned inside `pm`
        from.wait_into(recv_buf_.data(), count);
      }
      wait_s_ += w.seconds();
      faces_.unpack(op_, cell_view(grid), axis, side, recv_buf_.data());
    }
    run_from(grid, axis + step());
  }
}

void GridFoldPlan::begin(Grid3D<double>& grid) {
  trace::Span span("fold-begin");
  begin_chain(grid);
}

void GridFoldPlan::finish(Grid3D<double>& grid) {
  trace::Span span("fold-finish");
  finish_chain(grid);
}

}  // namespace v6d::mesh
