#include "mesh/halo_plan.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/timer.hpp"
#include "common/trace.hpp"

namespace v6d::mesh {

namespace {

inline int wrap(int i, int n) { return ((i % n) + n) % n; }

// Identify the two transverse axes of `axis` in increasing order.
inline void transverse_axes(int axis, int& ta, int& tb) {
  ta = -1;
  tb = -1;
  for (int t = 0; t < 3; ++t) {
    if (t == axis) continue;
    (ta < 0 ? ta : tb) = t;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// HaloPlan — single-axis phase-space face exchange
// ---------------------------------------------------------------------------

HaloPlan::HaloPlan(comm::CartTopology& cart,
                   const vlasov::PhaseSpaceDims& dims, int tag_base)
    : cart_(&cart), tag_base_(tag_base), ghost_(dims.ghost),
      block_(dims.velocity_cells()) {
  const int n[3] = {dims.nx, dims.ny, dims.nz};
  std::size_t max_face = 0;
  for (int axis = 0; axis < 3; ++axis) {
    auto& ap = axes_[static_cast<std::size_t>(axis)];
    int ta = 0, tb = 0;
    transverse_axes(axis, ta, tb);
    ap.n = n[axis];
    ap.t1n = n[ta];
    ap.t2n = n[tb];
    ap.decomposed = cart.dims()[static_cast<std::size_t>(axis)] > 1;
    ap.face_floats = static_cast<std::size_t>(ghost_) * ap.t1n * ap.t2n *
                     block_;
    if (ap.decomposed && ap.n < ghost_)
      throw std::invalid_argument(
          "HaloPlan: local extent " + std::to_string(ap.n) + " along axis " +
          std::to_string(axis) + " is smaller than the ghost width " +
          std::to_string(ghost_) + "; use fewer ranks along this axis");
    if (ap.decomposed) {
      send_lo_[static_cast<std::size_t>(axis)].resize(ap.face_floats);
      send_hi_[static_cast<std::size_t>(axis)].resize(ap.face_floats);
      max_face = std::max(max_face, ap.face_floats);
    }
  }
  recv_buf_.resize(max_face);
}

void HaloPlan::pack_face(const vlasov::PhaseSpace& f, int axis, int lo,
                         float* buf) const {
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  const std::size_t row = static_cast<std::size_t>(ap.t2n) * block_;
  const std::size_t bytes = block_ * sizeof(float);
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int a = 0; a < ghost_; ++a)
    for (int b = 0; b < ap.t1n; ++b) {
      std::size_t o = (static_cast<std::size_t>(a) * ap.t1n + b) * row;
      for (int c = 0; c < ap.t2n; ++c, o += block_) {
        int idx[3];
        idx[axis] = lo + a;
        int tpos = 0;
        for (int t = 0; t < 3; ++t) {
          if (t == axis) continue;
          idx[t] = tpos == 0 ? b : c;
          ++tpos;
        }
        std::memcpy(buf + o, f.block(idx[0], idx[1], idx[2]), bytes);
      }
    }
}

void HaloPlan::unpack_face(vlasov::PhaseSpace& f, int axis, int lo,
                           const float* buf) const {
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  const std::size_t row = static_cast<std::size_t>(ap.t2n) * block_;
  const std::size_t bytes = block_ * sizeof(float);
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int a = 0; a < ghost_; ++a)
    for (int b = 0; b < ap.t1n; ++b) {
      std::size_t o = (static_cast<std::size_t>(a) * ap.t1n + b) * row;
      for (int c = 0; c < ap.t2n; ++c, o += block_) {
        int idx[3];
        idx[axis] = lo + a;
        int tpos = 0;
        for (int t = 0; t < 3; ++t) {
          if (t == axis) continue;
          idx[t] = tpos == 0 ? b : c;
          ++tpos;
        }
        std::memcpy(f.block(idx[0], idx[1], idx[2]), buf + o, bytes);
      }
    }
}

void HaloPlan::wrap_axis(vlasov::PhaseSpace& f, int axis) const {
  // Whole axis on this rank: the ghosts are the local periodic image (the
  // modulo handles extents below the ghost width, e.g. quasi-1D grids).
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  const std::size_t bytes = block_ * sizeof(float);
  for (int a = -ghost_; a < ap.n + ghost_; ++a) {
    if (a >= 0 && a < ap.n) continue;
    const int src = wrap(a, ap.n);
    for (int b = 0; b < ap.t1n; ++b)
      for (int c = 0; c < ap.t2n; ++c) {
        int idx[3], sidx[3];
        idx[axis] = a;
        sidx[axis] = src;
        int tpos = 0;
        for (int t = 0; t < 3; ++t) {
          if (t == axis) continue;
          idx[t] = sidx[t] = tpos == 0 ? b : c;
          ++tpos;
        }
        std::memcpy(f.block(idx[0], idx[1], idx[2]),
                    f.block(sidx[0], sidx[1], sidx[2]), bytes);
      }
  }
}

void HaloPlan::begin_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-begin");
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  if (!ap.decomposed) {
    wrap_axis(f, axis);
    return;
  }
  auto& comm = cart_->comm();
  const auto nbr = cart_->neighbors(axis);
  const auto ax = static_cast<std::size_t>(axis);
  const int tag_fwd = tag_base_ + axis * 4 + 0;  // travelling +axis
  const int tag_bwd = tag_base_ + axis * 4 + 1;  // travelling -axis
  // High interior -> forward neighbor's low ghosts, and vice versa
  // (buffered sends: posting both before any receive cannot deadlock).
  pack_face(f, axis, ap.n - ghost_, send_hi_[ax].data());
  comm.send(nbr[1], tag_fwd, send_hi_[ax].data(), ap.face_floats);
  pack_face(f, axis, 0, send_lo_[ax].data());
  comm.send(nbr[0], tag_bwd, send_lo_[ax].data(), ap.face_floats);
  pending_lo_[ax] = comm.irecv(nbr[0], tag_fwd);
  pending_hi_[ax] = comm.irecv(nbr[1], tag_bwd);
}

void HaloPlan::finish_axis(vlasov::PhaseSpace& f, int axis) {
  trace::Span span("halo-finish");
  const auto& ap = axes_[static_cast<std::size_t>(axis)];
  if (!ap.decomposed) return;
  const auto ax = static_cast<std::size_t>(axis);
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_lo_[ax].wait_into(recv_buf_.data(), ap.face_floats);
    wait_s_ += w.seconds();
  }
  unpack_face(f, axis, -ghost_, recv_buf_.data());
  {
    trace::Span wait_span("halo-wait");
    Stopwatch w;
    pending_hi_[ax].wait_into(recv_buf_.data(), ap.face_floats);
    wait_s_ += w.seconds();
  }
  unpack_face(f, axis, ap.n, recv_buf_.data());
}

// ---------------------------------------------------------------------------
// GridFoldPlan — split ghost-deposit fold
// ---------------------------------------------------------------------------

namespace {

struct FoldRange {
  int lo, hi;
  int count() const { return hi - lo; }
};

// Transverse ranges of `axis` in the fold order (z, then y, then x): axes
// *below* the current one still carry live ghost contributions and must be
// included; higher axes are already folded.
inline void fold_ranges(const Grid3D<double>& grid, int axis, FoldRange r[3]) {
  const int g = grid.ghost();
  const int n[3] = {grid.nx(), grid.ny(), grid.nz()};
  for (int t = 0; t < 3; ++t)
    r[t] = t < axis ? FoldRange{-g, n[t] + g} : FoldRange{0, n[t]};
}

inline double& fold_at(Grid3D<double>& grid, int axis, int a, int b, int c) {
  int idx[3];
  idx[axis] = a;
  int tpos = 0;
  for (int t = 0; t < 3; ++t) {
    if (t == axis) continue;
    idx[t] = tpos == 0 ? b : c;
    ++tpos;
  }
  return grid.at(idx[0], idx[1], idx[2]);
}

}  // namespace

void GridFoldPlan::fold_axis_wrap(Grid3D<double>& grid, int axis) const {
  const int g = grid.ghost();
  const int n = axis == 0 ? grid.nx() : axis == 1 ? grid.ny() : grid.nz();
  FoldRange r[3];
  fold_ranges(grid, axis, r);
  int ta = 0, tb = 0;
  transverse_axes(axis, ta, tb);
  for (int a = -g; a < n + g; ++a) {
    if (a >= 0 && a < n) continue;
    const int dst = wrap(a, n);
    for (int b = r[ta].lo; b < r[ta].hi; ++b)
      for (int c = r[tb].lo; c < r[tb].hi; ++c) {
        fold_at(grid, axis, dst, b, c) += fold_at(grid, axis, a, b, c);
        fold_at(grid, axis, a, b, c) = 0.0;
      }
  }
}

void GridFoldPlan::post_axis(Grid3D<double>& grid, int axis) {
  const int g = grid.ghost();
  const int n = axis == 0 ? grid.nx() : axis == 1 ? grid.ny() : grid.nz();
  if (n < g)
    throw std::invalid_argument(
        "GridFoldPlan: local extent " + std::to_string(n) + " along axis " +
        std::to_string(axis) + " is smaller than the ghost width " +
        std::to_string(g) + "; use fewer ranks along this axis");
  FoldRange r[3];
  fold_ranges(grid, axis, r);
  int ta = 0, tb = 0;
  transverse_axes(axis, ta, tb);
  const std::size_t count =
      static_cast<std::size_t>(g) * r[ta].count() * r[tb].count();
  auto pack = [&](int lo, std::vector<double>& buf) {
    buf.resize(count);
    std::size_t o = 0;
    for (int a = lo; a < lo + g; ++a)
      for (int b = r[ta].lo; b < r[ta].hi; ++b)
        for (int c = r[tb].lo; c < r[tb].hi; ++c) {
          buf[o++] = fold_at(grid, axis, a, b, c);
          fold_at(grid, axis, a, b, c) = 0.0;
        }
  };
  auto& comm = cart_->comm();
  const auto nbr = cart_->neighbors(axis);
  const int tag_fwd = tag_base_ + axis * 4;
  const int tag_bwd = tag_base_ + axis * 4 + 1;
  // Our high ghosts belong to the forward neighbor's low interior.
  pack(n, send_hi_);
  comm.send(nbr[1], tag_fwd, send_hi_.data(), send_hi_.size());
  pack(-g, send_lo_);
  comm.send(nbr[0], tag_bwd, send_lo_.data(), send_lo_.size());
  h_lo_ = comm.irecv(nbr[0], tag_fwd);
  h_hi_ = comm.irecv(nbr[1], tag_bwd);
}

void GridFoldPlan::complete_axis(Grid3D<double>& grid, int axis) {
  const int g = grid.ghost();
  const int n = axis == 0 ? grid.nx() : axis == 1 ? grid.ny() : grid.nz();
  FoldRange r[3];
  fold_ranges(grid, axis, r);
  int ta = 0, tb = 0;
  transverse_axes(axis, ta, tb);
  const std::size_t count =
      static_cast<std::size_t>(g) * r[ta].count() * r[tb].count();
  auto add = [&](int lo) {
    std::size_t o = 0;
    for (int a = lo; a < lo + g; ++a)
      for (int b = r[ta].lo; b < r[ta].hi; ++b)
        for (int c = r[tb].lo; c < r[tb].hi; ++c)
          fold_at(grid, axis, a, b, c) += recv_buf_[o++];
  };
  recv_buf_.resize(count);
  {
    trace::Span wait_span("fold-wait");
    Stopwatch w;
    h_lo_.wait_into(recv_buf_.data(), count);
    wait_s_ += w.seconds();
  }
  add(0);
  {
    trace::Span wait_span("fold-wait");
    Stopwatch w;
    h_hi_.wait_into(recv_buf_.data(), count);
    wait_s_ += w.seconds();
  }
  add(n - g);
}

void GridFoldPlan::begin(Grid3D<double>& grid) {
  trace::Span span("fold-begin");
  pending_axis_ = -1;
  if (cart_->comm().size() == 1) {
    // The single-rank fold is the direct periodic scan (the serial
    // solver's), not the axis-by-axis chain.
    grid.fold_ghosts_periodic();
    return;
  }
  if (grid.ghost() == 0) return;
  for (int axis = 2; axis >= 0; --axis) {
    if (cart_->dims()[static_cast<std::size_t>(axis)] == 1) {
      fold_axis_wrap(grid, axis);
      continue;
    }
    post_axis(grid, axis);
    pending_axis_ = axis;
    return;
  }
}

void GridFoldPlan::finish(Grid3D<double>& grid) {
  trace::Span span("fold-finish");
  if (pending_axis_ < 0) return;
  complete_axis(grid, pending_axis_);
  for (int axis = pending_axis_ - 1; axis >= 0; --axis) {
    if (cart_->dims()[static_cast<std::size_t>(axis)] == 1) {
      fold_axis_wrap(grid, axis);
      continue;
    }
    post_axis(grid, axis);
    complete_axis(grid, axis);
  }
  pending_axis_ = -1;
}

}  // namespace v6d::mesh
