// Distributed 3-D complex FFT over the simulated MPI runtime.
//
// Slab decomposition: rank r owns x-planes [offset, offset + local_n).
// forward(): (1) z then y lines of the local x-slab, (2) global
// transpose (alltoallv) to y-slabs, (3) x lines.  Every line pass is an
// fft::transform_axis() call over the whole slab, the same routine
// fft::Fft3D runs, so a world-1 transform is bit-identical to the serial
// one.  The spectrum is left in transposed (y-slab) layout;
// inverse_normalized() is the mirror image, through the same transpose.
// This is the communication pattern whose alltoall volume makes the
// paper's PM part the worst-scaling one (Tables 3-4); the fft_scaling
// bench measures it directly.  (The paper's SSL II library uses a 2-D
// pencil decomposition; a slab is the P-ranks special case of that layout
// and exhibits the same volume-per-rank scaling law.)
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "fft/fft3d.hpp"

namespace v6d::fft {

class ParallelFft3D {
 public:
  /// Cubic n^3 transform across comm.size() ranks; n need not divide
  /// evenly (remainder planes go to low ranks).
  ParallelFft3D(comm::Communicator& comm, int n);

  int n() const { return n_; }
  int local_nx() const { return local_nx_; }     // x-planes owned (real layout)
  int x_offset() const { return x_offset_; }
  int local_ny() const { return local_ny_; }     // y-planes owned (spectrum)
  int y_offset() const { return y_offset_; }

  /// The planes [offset, offset + count) that `rank` owns: x-planes in
  /// real layout, y-planes in the spectrum (one split serves both; it is
  /// mesh::BrickDecomposition's).
  struct Planes {
    int offset = 0, count = 0;
  };
  Planes planes_of(int rank) const;

  /// In-place forward transform of the local x-slab
  /// (local_nx * n * n, z contiguous).  On return `local` holds the
  /// transposed spectrum (local_ny * n * n: index [y_local][x][z]).
  void forward(std::vector<cplx>& local);
  /// Inverse of forward (including 1/n^3 normalization); restores x-slab
  /// layout.
  void inverse_normalized(std::vector<cplx>& local);

  /// Iterate over the local spectrum entries as (kx_bin, ky_bin, kz_bin,
  /// value&) — valid between forward() and inverse_normalized().
  template <class Fn>
  void for_each_mode(std::vector<cplx>& spectrum, Fn&& fn) const {
    for (int y = 0; y < local_ny_; ++y)
      for (int x = 0; x < n_; ++x)
        for (int z = 0; z < n_; ++z)
          fn(x, y_offset_ + y, z,
             spectrum[(static_cast<std::size_t>(y) * n_ + x) * n_ + z]);
  }

 private:
  /// [a_local][b][z] -> [b_local][a][z] across the world: x-slabs to
  /// y-slabs and back, since x and y planes share one split.  Throws
  /// std::runtime_error, before reading it, on a received block of the
  /// wrong length.
  void transpose(std::vector<cplx>& local);

  comm::Communicator& comm_;
  int n_;
  int local_nx_, x_offset_;
  int local_ny_, y_offset_;
  FftPlan plan_;
};

}  // namespace v6d::fft
