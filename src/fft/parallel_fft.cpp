#include "fft/parallel_fft.hpp"

#include <cstring>

#include "mesh/decomposition.hpp"

namespace v6d::fft {

ParallelFft3D::ParallelFft3D(comm::Communicator& comm, int n)
    : comm_(comm), n_(n), plan_(n) {
  const Planes mine = planes_of(comm.rank());
  local_nx_ = local_ny_ = mine.count;
  x_offset_ = y_offset_ = mine.offset;
}

ParallelFft3D::Planes ParallelFft3D::planes_of(int rank) const {
  const int p = comm_.size();
  return {mesh::BrickDecomposition::share_offset(n_, p, rank),
          mesh::BrickDecomposition::share(n_, p, rank)};
}

void ParallelFft3D::transpose_x_to_y(std::vector<cplx>& local) {
  // From [x_loc][y][z] to [y_loc][x][z]:
  // send to rank d the block {my x rows} x {d's y rows} x {all z}.
  const int p = comm_.size();
  std::vector<std::vector<std::uint8_t>> send(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const auto [oy_d, ny_d] = planes_of(d);
    auto& buf = send[static_cast<std::size_t>(d)];
    buf.resize(static_cast<std::size_t>(local_nx_) * ny_d * n_ *
               sizeof(cplx));
    std::size_t o = 0;
    for (int x = 0; x < local_nx_; ++x)
      for (int y = 0; y < ny_d; ++y) {
        const cplx* src =
            local.data() +
            (static_cast<std::size_t>(x) * n_ + (oy_d + y)) * n_;
        std::memcpy(buf.data() + o, src, n_ * sizeof(cplx));
        o += static_cast<std::size_t>(n_) * sizeof(cplx);
      }
  }
  auto recv = comm_.alltoallv(send);
  std::vector<cplx> out(static_cast<std::size_t>(local_ny_) * n_ * n_);
  for (int r = 0; r < p; ++r) {
    const auto [ox_r, nx_r] = planes_of(r);
    const auto& buf = recv[static_cast<std::size_t>(r)];
    std::size_t o = 0;
    for (int x = 0; x < nx_r; ++x)
      for (int y = 0; y < local_ny_; ++y) {
        cplx* dst = out.data() +
                    (static_cast<std::size_t>(y) * n_ + (ox_r + x)) * n_;
        std::memcpy(dst, buf.data() + o, n_ * sizeof(cplx));
        o += static_cast<std::size_t>(n_) * sizeof(cplx);
      }
  }
  local = std::move(out);
}

void ParallelFft3D::transpose_y_to_x(std::vector<cplx>& local) {
  // Inverse of transpose_x_to_y: from [y_loc][x][z] to [x_loc][y][z].
  const int p = comm_.size();
  std::vector<std::vector<std::uint8_t>> send(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const auto [ox_d, nx_d] = planes_of(d);
    auto& buf = send[static_cast<std::size_t>(d)];
    buf.resize(static_cast<std::size_t>(nx_d) * local_ny_ * n_ *
               sizeof(cplx));
    std::size_t o = 0;
    for (int x = 0; x < nx_d; ++x)
      for (int y = 0; y < local_ny_; ++y) {
        const cplx* src =
            local.data() +
            (static_cast<std::size_t>(y) * n_ + (ox_d + x)) * n_;
        std::memcpy(buf.data() + o, src, n_ * sizeof(cplx));
        o += static_cast<std::size_t>(n_) * sizeof(cplx);
      }
  }
  auto recv = comm_.alltoallv(send);
  std::vector<cplx> out(static_cast<std::size_t>(local_nx_) * n_ * n_);
  for (int r = 0; r < p; ++r) {
    const auto [oy_r, ny_r] = planes_of(r);
    const auto& buf = recv[static_cast<std::size_t>(r)];
    std::size_t o = 0;
    for (int x = 0; x < local_nx_; ++x)
      for (int y = 0; y < ny_r; ++y) {
        cplx* dst = out.data() +
                    (static_cast<std::size_t>(x) * n_ + (oy_r + y)) * n_;
        std::memcpy(dst, buf.data() + o, n_ * sizeof(cplx));
        o += static_cast<std::size_t>(n_) * sizeof(cplx);
      }
  }
  local = std::move(out);
}

void ParallelFft3D::forward(std::vector<cplx>& local) {
  std::vector<cplx> line(static_cast<std::size_t>(n_));
  // (1) per-plane 2-D FFT: z lines (contiguous) then y lines (stride n).
  for (int x = 0; x < local_nx_; ++x) {
    cplx* plane = local.data() + static_cast<std::size_t>(x) * n_ * n_;
    for (int y = 0; y < n_; ++y)
      plan_.forward(plane + static_cast<std::size_t>(y) * n_);
    for (int z = 0; z < n_; ++z) {
      for (int y = 0; y < n_; ++y)
        line[static_cast<std::size_t>(y)] =
            plane[static_cast<std::size_t>(y) * n_ + z];
      plan_.forward(line.data());
      for (int y = 0; y < n_; ++y)
        plane[static_cast<std::size_t>(y) * n_ + z] =
            line[static_cast<std::size_t>(y)];
    }
  }
  // (2) global transpose to y-slabs.
  transpose_x_to_y(local);
  // (3) x lines (stride n in the transposed layout).
  for (int y = 0; y < local_ny_; ++y) {
    cplx* plane = local.data() + static_cast<std::size_t>(y) * n_ * n_;
    for (int z = 0; z < n_; ++z) {
      for (int x = 0; x < n_; ++x)
        line[static_cast<std::size_t>(x)] =
            plane[static_cast<std::size_t>(x) * n_ + z];
      plan_.forward(line.data());
      for (int x = 0; x < n_; ++x)
        plane[static_cast<std::size_t>(x) * n_ + z] =
            line[static_cast<std::size_t>(x)];
    }
  }
}

void ParallelFft3D::inverse_normalized(std::vector<cplx>& local) {
  std::vector<cplx> line(static_cast<std::size_t>(n_));
  for (int y = 0; y < local_ny_; ++y) {
    cplx* plane = local.data() + static_cast<std::size_t>(y) * n_ * n_;
    for (int z = 0; z < n_; ++z) {
      for (int x = 0; x < n_; ++x)
        line[static_cast<std::size_t>(x)] =
            plane[static_cast<std::size_t>(x) * n_ + z];
      plan_.inverse(line.data());
      for (int x = 0; x < n_; ++x)
        plane[static_cast<std::size_t>(x) * n_ + z] =
            line[static_cast<std::size_t>(x)];
    }
  }
  transpose_y_to_x(local);
  for (int x = 0; x < local_nx_; ++x) {
    cplx* plane = local.data() + static_cast<std::size_t>(x) * n_ * n_;
    // Undo the per-plane 2-D transform: y lines (strided), then z lines.
    for (int z = 0; z < n_; ++z) {
      for (int y = 0; y < n_; ++y)
        line[static_cast<std::size_t>(y)] =
            plane[static_cast<std::size_t>(y) * n_ + z];
      plan_.inverse(line.data());
      for (int y = 0; y < n_; ++y)
        plane[static_cast<std::size_t>(y) * n_ + z] =
            line[static_cast<std::size_t>(y)];
    }
    for (int y = 0; y < n_; ++y)
      plan_.inverse(plane + static_cast<std::size_t>(y) * n_);
  }
  const double scale =
      1.0 / (static_cast<double>(n_) * n_ * n_);
  for (auto& v : local) v *= scale;
}

}  // namespace v6d::fft
