// Line-sweep kernels for the six split advection directions (§5.3).
//
// Every sweep in the 6-D solver reduces to: advance a batch of 1-D lines by
// a common shift xi.  Three implementations are provided:
//
//  * scalar  — one line at a time; the correctness reference.
//  * simd    — L lines whose *lanes* are adjacent in memory (the paper's
//              Fig. 1 case: vectorize across the contiguous uz index while
//              sweeping any other axis).  Every stencil access is one
//              contiguous vector load.
//  * lat     — the sweep axis itself is the contiguous one (the paper's
//              Fig. 2 problem).  L whole lines are staged through an
//              in-register transpose ("load and transpose", Fig. 3) so the
//              inner loop still performs contiguous vector loads.
//
// All three stage the batch into a zero-padded workspace, run the SL-MPP5
// flux kernel on it and write the result back.  Zero ghosts are what the
// velocity sweeps need: f has compact support inside the velocity cube.
// Position sweeps have nonzero ghosts (a neighbor's faces or the line's
// periodic image); vlasov::advect_position_axis stages those itself and
// runs the same flux cores (advect_line_scalar, detail::sl_mpp5_kernel_vec).
//
// The vector kernels take a LineShift, built once per shift and reused by
// every lane group a sweep advects by it.
#pragma once

#include <cstddef>
#include <optional>

#include "common/aligned.hpp"
#include "simd/pack.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::vlasov {

/// Lanes processed per SIMD/LAT call.  Capped at 8 so that production
/// velocity grids (8-16 cells per axis) form at least one full lane group;
/// the rest of a line runs scalar (nu = 12 at 8 lanes: one group plus a
/// 4-line tail).  The paper's SVE kernels use 16 lanes against 64-cell
/// velocity grids.
inline constexpr int kLanes =
    simd::kNativeFloatWidth < 8 ? simd::kNativeFloatWidth : 8;

/// The flux setup of one kLanes-wide line batch: xi = s + theta per lane,
/// theta in [0, 1), with the weights, limiter parameters and ghost width
/// that follow from it.  Lanes may differ in xi, and in floor(xi) by one:
/// `upper` marks the lanes whose floor is s + 1 (a z-sweep lane group that
/// straddles u = 0 holds floors -1 and 0).
struct LineShift {
  using P = simd::Pack<float, kLanes>;
  P w0, w1, w2, w3, w4;  // fractional flux weights per lane
  P theta, inv_theta;    // fractional shift per lane (inv 0 when theta ~ 0)
  P alpha;               // per-lane adaptive Suresh-Huynh alpha
  P alpha_third;         // alpha / 3.0f (pre-rounded, matches scalar)
  P::Mask upper{};       // lanes whose floor(xi) is s + 1
  int s = 0;             // floor(xi) of the lanes outside `upper`
  bool mixed = false;    // some lane is in `upper`
  Limiter limiter = Limiter::kNone;
  bool limit = false;       // apply the MP limiter (any lane has theta > 0)
  bool pure_shift = false;  // every lane is an exact whole-cell translation
  int max_ghost = 0;        // ghost cells this shift requires

  /// The same xi in every lane.
  static LineShift uniform(double xi, Limiter limiter);

  /// xi[l] for lane l (kLanes values).  Returns no shift when the lanes'
  /// floors differ by more than one, or when the blended stencil of mixed
  /// floors would read further than the widest lane's own stencil.  Both
  /// need a lane at |xi| >= 1; under the drift's |xi| <= 1 that is a lane
  /// at xi = +1 exactly.  Such groups take the scalar kernel lane by lane.
  static std::optional<LineShift> per_lane(const double* xi, Limiter limiter);
};

/// Reusable scratch for the sweep kernels; ensure() grows buffers as needed.
struct AdvectWorkspace {
  AlignedVector<float> in;    // (n + 2*ghost) * lanes
  AlignedVector<float> out;   // n * lanes
  AlignedVector<float> flux;  // (n + 1) * lanes

  void ensure(int n, int ghost, int lanes);
};

/// Scalar reference: one strided line. src/dst address cell 0; cells are
/// `stride` floats apart. src and dst may alias.
void advect_line_strided_scalar(const float* src, std::ptrdiff_t stride,
                                float* dst, std::ptrdiff_t dst_stride, int n,
                                double xi, Limiter limiter,
                                AdvectWorkspace& ws);

/// SIMD: kLanes lines whose lane index is memory-contiguous, lane l
/// advected by lane l of `shift`. src addresses (cell 0, lane 0); cells are
/// `cell_stride` floats apart; lane l of cell i lives at
/// src + i*cell_stride + l. src and dst may alias.
void advect_lines_simd(const float* src, std::ptrdiff_t cell_stride,
                       float* dst, std::ptrdiff_t dst_cell_stride, int n,
                       const LineShift& shift, AdvectWorkspace& ws);

/// LAT: kLanes lines along the contiguous axis. Line l starts at
/// src + l*line_stride; cells within a line are adjacent floats.
/// src and dst may alias.
void advect_lines_lat(const float* src, std::ptrdiff_t line_stride,
                      float* dst, std::ptrdiff_t dst_line_stride, int n,
                      const LineShift& shift, AdvectWorkspace& ws);

/// "Naive SIMD" variant of the LAT case used by the Table-1 bench: lanes are
/// gathered element-by-element from strided lines (the slow data layout of
/// the paper's Fig. 2) instead of transposed in registers.
void advect_lines_lat_gather(const float* src, std::ptrdiff_t line_stride,
                             float* dst, std::ptrdiff_t dst_line_stride,
                             int n, const LineShift& shift,
                             AdvectWorkspace& ws);

}  // namespace v6d::vlasov
