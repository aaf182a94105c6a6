// Test oracle: the blocking ghost-deposit fold.
//
// Adds ghost-cell contributions onto the owning neighbor's interior and
// zeroes the local ghosts, one blocking send/recv pair per decomposed axis
// (z, then y, then x, shrinking the transverse range as it goes so every
// ghost contribution lands exactly once).  The production path folds
// through mesh::GridFoldPlan; its begin/finish halves must reproduce this
// reference bit for bit.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "comm/cart.hpp"
#include "mesh/grid.hpp"

namespace v6d::test {

inline void fold_grid_halo(mesh::Grid3D<double>& grid,
                           comm::CartTopology& cart) {
  if (cart.comm().size() == 1) {
    grid.fold_ghosts_periodic();
    return;
  }
  constexpr int kBlockingFoldTagBase = 200;
  auto& comm = cart.comm();
  const int g = grid.ghost();
  if (g == 0) return;
  const int n[3] = {grid.nx(), grid.ny(), grid.nz()};
  auto wrap = [](int i, int len) { return ((i % len) + len) % len; };

  for (int axis = 2; axis >= 0; --axis) {
    int lo[3], hi[3];  // transverse ranges: lower axes still carry ghosts
    for (int t = 0; t < 3; ++t) {
      lo[t] = t < axis ? -g : 0;
      hi[t] = t < axis ? n[t] + g : n[t];
    }
    int ta = -1, tb = -1;
    for (int t = 0; t < 3; ++t) {
      if (t == axis) continue;
      (ta < 0 ? ta : tb) = t;
    }
    auto at = [&](int a, int b, int c) -> double& {
      int idx[3];
      idx[axis] = a;
      idx[ta] = b;
      idx[tb] = c;
      return grid.at(idx[0], idx[1], idx[2]);
    };
    if (cart.dims()[static_cast<std::size_t>(axis)] == 1) {
      // Undecomposed axis: fold ghosts onto their periodic interior image
      // locally (the modulo handles extents below the ghost width).
      for (int a = -g; a < n[axis] + g; ++a) {
        if (a >= 0 && a < n[axis]) continue;
        const int dst = wrap(a, n[axis]);
        for (int b = lo[ta]; b < hi[ta]; ++b)
          for (int c = lo[tb]; c < hi[tb]; ++c) {
            at(dst, b, c) += at(a, b, c);
            at(a, b, c) = 0.0;
          }
      }
      continue;
    }
    if (n[axis] < g)
      throw std::invalid_argument(
          "fold_grid_halo: local extent " + std::to_string(n[axis]) +
          " along axis " + std::to_string(axis) +
          " is smaller than the ghost width " + std::to_string(g));
    const auto nbr = cart.neighbors(axis);
    std::vector<double> send_hi, send_lo, recv_buf;
    auto pack = [&](int first, std::vector<double>& buf) {
      buf.clear();
      buf.reserve(static_cast<std::size_t>(g) * (hi[ta] - lo[ta]) *
                  (hi[tb] - lo[tb]));
      for (int a = first; a < first + g; ++a)
        for (int b = lo[ta]; b < hi[ta]; ++b)
          for (int c = lo[tb]; c < hi[tb]; ++c) {
            buf.push_back(at(a, b, c));
            at(a, b, c) = 0.0;
          }
    };
    auto add = [&](int first, const std::vector<double>& buf) {
      std::size_t o = 0;
      for (int a = first; a < first + g; ++a)
        for (int b = lo[ta]; b < hi[ta]; ++b)
          for (int c = lo[tb]; c < hi[tb]; ++c) at(a, b, c) += buf[o++];
    };
    const int tag_fwd = kBlockingFoldTagBase + axis * 4;
    const int tag_bwd = kBlockingFoldTagBase + axis * 4 + 1;
    // Our high ghosts belong to the forward neighbor's low interior.
    pack(n[axis], send_hi);
    comm.send(nbr[1], tag_fwd, send_hi.data(), send_hi.size());
    pack(-g, send_lo);
    comm.send(nbr[0], tag_bwd, send_lo.data(), send_lo.size());
    recv_buf.resize(send_hi.size());
    comm.recv(nbr[0], tag_fwd, recv_buf.data(), recv_buf.size());
    add(0, recv_buf);
    recv_buf.resize(send_lo.size());
    comm.recv(nbr[1], tag_bwd, recv_buf.data(), recv_buf.size());
    add(n[axis] - g, recv_buf);
  }
}

}  // namespace v6d::test
