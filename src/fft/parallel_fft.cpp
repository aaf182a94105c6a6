#include "fft/parallel_fft.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

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

void ParallelFft3D::transpose(std::vector<cplx>& local) {
  // Send rank d the block {my a planes} x {d's b planes} x {all z}; the
  // block from rank r holds {r's a planes} x {my b planes} x {all z}.
  const int p = comm_.size();
  const int mine = local_nx_;  // == local_ny_: a and b share one split
  const std::size_t row = static_cast<std::size_t>(n_) * sizeof(cplx);
  auto row_at = [this](std::vector<cplx>& v, int a, int b) {
    return v.data() + (static_cast<std::size_t>(a) * n_ + b) * n_;
  };
  std::vector<std::vector<std::uint8_t>> send(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const auto [ob_d, nb_d] = planes_of(d);
    auto& buf = send[static_cast<std::size_t>(d)];
    buf.resize(static_cast<std::size_t>(mine) * nb_d * row);
    std::uint8_t* o = buf.data();
    for (int a = 0; a < mine; ++a)
      for (int b = 0; b < nb_d; ++b, o += row)
        std::memcpy(o, row_at(local, a, ob_d + b), row);
  }
  const auto recv = comm_.alltoallv(std::move(send));
  std::vector<cplx> out(static_cast<std::size_t>(mine) * n_ * n_);
  for (int r = 0; r < p; ++r) {
    const auto [oa_r, na_r] = planes_of(r);
    const auto& buf = recv[static_cast<std::size_t>(r)];
    const std::size_t expected = static_cast<std::size_t>(na_r) * mine * row;
    if (buf.size() != expected)
      throw std::runtime_error(
          "ParallelFft3D::transpose: rank " + std::to_string(comm_.rank()) +
          " received " + std::to_string(buf.size()) + " bytes from rank " +
          std::to_string(r) + ", expected " + std::to_string(expected));
    const std::uint8_t* o = buf.data();
    for (int a = 0; a < na_r; ++a)
      for (int b = 0; b < mine; ++b, o += row)
        std::memcpy(row_at(out, b, oa_r + a), o, row);
  }
  local = std::move(out);
}

void ParallelFft3D::forward(std::vector<cplx>& local) {
  transform_axis(plan_, local.data(), {local_nx_, n_, n_}, 2, false);
  transform_axis(plan_, local.data(), {local_nx_, n_, n_}, 1, false);
  transpose(local);
  transform_axis(plan_, local.data(), {local_ny_, n_, n_}, 1, false);
}

void ParallelFft3D::inverse_normalized(std::vector<cplx>& local) {
  transform_axis(plan_, local.data(), {local_ny_, n_, n_}, 1, true);
  transpose(local);
  transform_axis(plan_, local.data(), {local_nx_, n_, n_}, 1, true);
  transform_axis(plan_, local.data(), {local_nx_, n_, n_}, 2, true);
  const double scale = 1.0 / (static_cast<double>(n_) * n_ * n_);
  for (auto& v : local) v *= scale;
}

}  // namespace v6d::fft
