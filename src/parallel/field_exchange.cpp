#include "parallel/field_exchange.hpp"

#include <algorithm>
#include <cstring>

#include "common/timer.hpp"

namespace v6d::parallel {

namespace {

/// Brick geometry of an arbitrary rank, reconstructed from the cart
/// topology (every rank can compute every other rank's extents).
struct BrickOf {
  int lo[3], n[3];  // global offset and extent per axis
};

BrickOf brick_of(int rank, const mesh::BrickDecomposition& dec,
                 comm::CartTopology& cart) {
  const auto coords = cart.coords_of(rank);
  const auto global = dec.global();
  const auto dims = dec.dims();
  BrickOf b{};
  for (int a = 0; a < 3; ++a) {
    const auto i = static_cast<std::size_t>(a);
    b.lo[a] = mesh::BrickDecomposition::share_offset(global[i], dims[i],
                                                     coords[i]);
    b.n[a] = mesh::BrickDecomposition::share(global[i], dims[i], coords[i]);
  }
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// SlabExchange — split p2p redistribution with precomputed footprints
// ---------------------------------------------------------------------------

SlabExchange::SlabExchange(const mesh::BrickDecomposition& dec,
                           const fft::ParallelFft3D& pfft,
                           comm::CartTopology& cart, int tag_base)
    : cart_(&cart), pfft_(&pfft), tag_base_(tag_base) {
  auto& comm = cart.comm();
  const int p = comm.size();
  const int n = pfft.n();
  const BrickOf mine = brick_of(comm.rank(), dec, cart);
  for (int a = 0; a < 3; ++a) my_lo_[a] = mine.lo[a];
  my_so_ = pfft.x_offset();

  for (int r = 0; r < p; ++r) {
    // My brick rows landing in rank r's slab ...
    const auto slab = pfft.planes_of(r);
    int x0 = std::max(mine.lo[0], slab.offset);
    int x1 = std::min(mine.lo[0] + mine.n[0], slab.offset + slab.count);
    if (x0 < x1)
      brick_rows_.push_back({r, x0, x1, mine.n[1], mine.n[2], 0, 0});
    // ... and rank r's brick rows landing in my slab.  The slab -> brick
    // direction moves exactly these intersections the other way, so the
    // two lists serve both directions.
    const BrickOf src = brick_of(r, dec, cart);
    x0 = std::max(src.lo[0], my_so_);
    x1 = std::min(src.lo[0] + src.n[0], my_so_ + pfft.local_nx());
    if (x0 < x1)
      slab_rows_.push_back({r, x0, x1, src.n[1], src.n[2], src.lo[1],
                            src.lo[2]});
  }
  slab_.resize(static_cast<std::size_t>(pfft.local_nx()) * n * n,
               fft::cplx(0.0, 0.0));
}

std::vector<std::uint8_t> SlabExchange::wait_pending(std::size_t s,
                                                     const Footprint& fp) {
  ScopedTimer wait("slab-wait");
  return pending_[s].wait(fp.bytes());
}

void SlabExchange::begin_to_slab(const mesh::Grid3D<double>& brick) {
  ScopedTimer region("slab-begin");
  auto& comm = cart_->comm();
  for (const auto& fp : brick_rows_) {
    std::vector<std::uint8_t> payload(fp.bytes());
    auto* out = reinterpret_cast<double*>(payload.data());
    const std::size_t row = sizeof(double) * static_cast<std::size_t>(fp.nz);
    // Brick z-rows are contiguous and the payload is [x][y][z]: one memcpy
    // per (x, y) row instead of per-cell index churn.
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly, out += fp.nz)
        std::memcpy(out, &brick.at(gx - my_lo_[0], ly, 0), row);
    comm.send(fp.rank, tag_base_, std::move(payload));
  }
  pending_.clear();
  for (const auto& fp : slab_rows_)
    pending_.push_back(comm.irecv(fp.rank, tag_base_));
}

std::vector<fft::cplx>& SlabExchange::finish_to_slab() {
  ScopedTimer region("slab-finish");
  const int n = pfft_->n();
  for (std::size_t s = 0; s < slab_rows_.size(); ++s) {
    const auto& fp = slab_rows_[s];
    const auto payload = wait_pending(s, fp);
    const auto* in = reinterpret_cast<const double*>(payload.data());
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly)
        for (int lz = 0; lz < fp.nz; ++lz)
          slab_[(static_cast<std::size_t>(gx - my_so_) * n + (fp.lo1 + ly)) *
                    n +
                (fp.lo2 + lz)] = fft::cplx(*in++, 0.0);
  }
  return slab_;
}

void SlabExchange::begin_to_brick(const std::vector<fft::cplx>& slab) {
  ScopedTimer region("slab-begin");
  auto& comm = cart_->comm();
  const int n = pfft_->n();
  for (const auto& fp : slab_rows_) {
    std::vector<std::uint8_t> payload(fp.bytes());
    auto* out = reinterpret_cast<double*>(payload.data());
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly)
        for (int lz = 0; lz < fp.nz; ++lz)
          *out++ = slab[(static_cast<std::size_t>(gx - my_so_) * n +
                         (fp.lo1 + ly)) *
                            n +
                        (fp.lo2 + lz)]
                       .real();
    comm.send(fp.rank, tag_base_ + 1, std::move(payload));
  }
  pending_.clear();
  for (const auto& fp : brick_rows_)
    pending_.push_back(comm.irecv(fp.rank, tag_base_ + 1));
}

void SlabExchange::finish_to_brick(mesh::Grid3D<double>& brick) {
  ScopedTimer region("slab-finish");
  for (std::size_t s = 0; s < brick_rows_.size(); ++s) {
    const auto& fp = brick_rows_[s];
    const auto payload = wait_pending(s, fp);
    const auto* in = reinterpret_cast<const double*>(payload.data());
    const std::size_t row = sizeof(double) * static_cast<std::size_t>(fp.nz);
    for (int gx = fp.x0; gx < fp.x1; ++gx)
      for (int ly = 0; ly < fp.ny; ++ly, in += fp.nz)
        std::memcpy(&brick.at(gx - my_lo_[0], ly, 0), in, row);
  }
}

}  // namespace v6d::parallel
