// Layout changes between the brick decomposition (mesh/decomposition.hpp)
// and the x-slab layout of the distributed FFT (fft/parallel_fft.hpp).
//
// The PM density is deposited into per-rank bricks (matching the Vlasov
// decomposition, paper §5.1.3) but the parallel FFT wants contiguous
// x-slabs; SlabExchange moves interiors between the two layouts with
// point-to-point messages to every rank whose footprint intersects — the
// same communication shape as the paper's "slab redistribution before the
// SSL II FFT".
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cart.hpp"
#include "fft/parallel_fft.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/grid.hpp"

namespace v6d::parallel {

/// Assemble the full global field from disjoint brick interiors on every
/// rank (allreduce of a zero-padded global grid).  Used by diagnostics and
/// the checkpoint force gather; `global` must be pre-sized to the global
/// extents (any ghost width; ghosts are left zero).
void allgather_bricks(const mesh::Grid3D<double>& brick,
                      const mesh::BrickDecomposition& dec,
                      comm::Communicator& comm, mesh::Grid3D<double>& global);

/// Split (overlappable) brick <-> x-slab redistribution.
///
/// Buffered point-to-point sends let the caller compute (Green-function
/// tables, the next spectral component) while messages are in flight.
/// Footprint intersections are precomputed at construction; each block is
/// packed straight into the payload it is sent in, and each received
/// payload is length-checked and read in place (std::runtime_error on a
/// mismatch), so the plan keeps no message buffers.  Slabs are complex
/// [x_local][y][z] (z contiguous) with zero imaginary parts; the return
/// direction scatters the real parts back into the brick interiors
/// (ghosts untouched).
///
/// Only one exchange (either direction) may be in flight per instance;
/// distinct instances on the same communicator need distinct `tag_base`s.
class SlabExchange {
 public:
  SlabExchange() = default;
  SlabExchange(const mesh::BrickDecomposition& dec,
               const fft::ParallelFft3D& pfft, comm::CartTopology& cart,
               int tag_base);

  /// Pack this rank's brick rows for every destination slab and post the
  /// sends + receive handles.  `brick` may be reused immediately.
  void begin_to_slab(const mesh::Grid3D<double>& brick);
  /// Complete the receives; returns the persistent slab buffer (valid
  /// until the next begin_to_slab on this instance).
  std::vector<fft::cplx>& finish_to_slab();

  /// Inverse direction: scatter this rank's slab rows toward the bricks.
  /// `slab` may be reused immediately after return.
  void begin_to_brick(const std::vector<fft::cplx>& slab);
  void finish_to_brick(mesh::Grid3D<double>& brick);

 private:
  struct Footprint {
    int rank = 0;
    int x0 = 0, x1 = 0;       // global x-row intersection
    int ny = 0, nz = 0;       // transverse extents of the brick side
    int lo1 = 0, lo2 = 0;     // that brick's global (y, z) offsets
    std::size_t bytes() const {
      return sizeof(double) * static_cast<std::size_t>(x1 - x0) * ny * nz;
    }
  };
  // Completes pending_[s], which carries footprint `fp`, under "slab-wait".
  std::vector<std::uint8_t> wait_pending(std::size_t s, const Footprint& fp);

  comm::CartTopology* cart_ = nullptr;
  const fft::ParallelFft3D* pfft_ = nullptr;
  int tag_base_ = 0;
  int my_so_ = 0;                     // my first slab row
  int my_lo_[3] = {0, 0, 0};          // my brick offsets
  // The two directions move the same intersections in opposite senses, so
  // two footprint lists serve both: brick_rows_ = my brick ∩ each rank's
  // slab (sent in to-slab, received in to-brick); slab_rows_ = each
  // rank's brick ∩ my slab (received in to-slab, sent in to-brick).
  std::vector<Footprint> brick_rows_, slab_rows_;
  std::vector<comm::Communicator::RecvHandle> pending_;
  std::vector<fft::cplx> slab_;
};

}  // namespace v6d::parallel
