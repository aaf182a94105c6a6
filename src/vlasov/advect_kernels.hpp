// Line-sweep kernels for the six split advection directions (§5.3).
//
// Every sweep in the 6-D solver reduces to: advance a batch of 1-D lines by
// a common shift xi.  Three implementations are provided:
//
//  * scalar  — one line at a time; the correctness reference.
//  * simd    — a panel of lines whose *lanes* are adjacent in memory (the
//              paper's Fig. 1 case: vectorize across the contiguous uz
//              index while sweeping any other axis).  Every stencil access
//              is one contiguous vector load.
//  * lat     — the sweep axis itself is the contiguous one (the paper's
//              Fig. 2 problem).  A panel of whole lines is staged through
//              in-register transposes ("load and transpose", Fig. 3) so the
//              inner loop still performs contiguous vector loads.
//
// The vector kernels stage a panel once — every line of it, zero-padded
// into one workspace copy — then run the SL-MPP5 flux kernel on each
// kSweepLanes-wide lane group of it; lanes past the last full group are
// left to the scalar kernel.  Zero ghosts are what the velocity sweeps
// need: f has compact support inside the velocity cube.  Position sweeps
// have nonzero ghosts (a neighbor's faces or the line's periodic image);
// vlasov::advect_position_axis stages those itself and runs the same flux
// cores (advect_line_scalar, detail::sl_mpp5_kernel_vec).  The two panel
// kernels are inline, defined in advect_vec_impl.hpp (include it to call
// them), so the sweeps compile them into each instruction-set tier
// (simd/dispatch.hpp).
//
// kSweepLanes is 4 in every build and on every tier, and no build
// contracts a multiply-add, so scalar, SIMD and LAT agree bit for bit in
// every build.
//
// The vector kernels take a LineShift, built once per shift and reused by
// every lane group a sweep advects by it.
#pragma once

#include <cstddef>
#include <optional>

#include "common/aligned.hpp"
#include "simd/dispatch.hpp"
#include "simd/pack.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::vlasov {

/// Lanes per vector kernel call: 4 in every build (simd/dispatch.hpp).
using simd::kSweepLanes;

/// The flux setup of one kSweepLanes-wide line batch: xi = s + theta per
/// lane, theta in [0, 1), with the weights, limiter parameters and ghost
/// width that follow from it.  Lanes may differ in xi, and in floor(xi) by one:
/// `upper` marks the lanes whose floor is s + 1 (a z-sweep lane group that
/// straddles u = 0 holds floors -1 and 0).
struct LineShift {
  using P = simd::Pack<float, kSweepLanes>;
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

  /// xi[l] for lane l (kSweepLanes values).  Returns no shift when the lanes'
  /// floors differ by more than one, or when the blended stencil of mixed
  /// floors would read further than the widest lane's own stencil.  Both
  /// need a lane at |xi| >= 1; under the drift's |xi| <= 1 that is a lane
  /// at xi = +1 exactly.  Such groups take the scalar kernel lane by lane.
  static std::optional<LineShift> per_lane(const double* xi, Limiter limiter);
};

/// Reusable scratch for the sweep kernels.  Each buffer holds what one
/// call stages, no more, and grows to the largest such call; it never
/// shrinks, so a sweep allocates only on its first lines.
struct AdvectWorkspace {
  AlignedVector<float> in;    // padded input panel: (n + 2*ghost) * lanes
  AlignedVector<float> out;   // staged results: n * out_lanes
  AlignedVector<float> flux;  // one lane group's fluxes: (n + 1) * kSweepLanes

  /// Room for a padded panel of `lanes` lines of n cells, the fluxes of
  /// one lane group, and `out_lanes` staged result lines (0 when the
  /// kernel writes its results straight to their destination).
  void ensure(int n, int ghost, int lanes, int out_lanes);
};

/// Scalar reference: one strided line. src/dst address cell 0; cells are
/// `stride` floats apart. src and dst may alias.
void advect_line_strided_scalar(const float* src, std::ptrdiff_t stride,
                                float* dst, std::ptrdiff_t dst_stride, int n,
                                double xi, Limiter limiter,
                                AdvectWorkspace& ws);

/// SIMD: a panel of `lanes` lines whose lane index is memory-contiguous.
/// src addresses (cell 0, lane 0); cells are `cell_stride` floats apart;
/// lane l of cell i lives at src + i*cell_stride + l.  Advects every full
/// kSweepLanes group of the panel, lane l by lane l % kSweepLanes of
/// `shift` (so a panel wider than kSweepLanes wants a uniform shift), and
/// returns the lanes covered, lanes - lanes % kSweepLanes: the caller
/// advects the rest with the scalar kernel.  src and dst may alias.
inline int advect_lines_simd(const float* src, std::ptrdiff_t cell_stride,
                             float* dst, std::ptrdiff_t dst_cell_stride,
                             int n, int lanes, const LineShift& shift,
                             AdvectWorkspace& ws);

/// LAT: a panel of `lanes` lines along the contiguous axis.  Line l starts
/// at src + l*line_stride; cells within a line are adjacent floats.  Lanes
/// and return value as advect_lines_simd.  src and dst may alias.
inline int advect_lines_lat(const float* src, std::ptrdiff_t line_stride,
                            float* dst, std::ptrdiff_t dst_line_stride, int n,
                            int lanes, const LineShift& shift,
                            AdvectWorkspace& ws);

/// "Naive SIMD" variant of the LAT case used by the Table-1 bench:
/// kSweepLanes lines whose lanes are gathered element-by-element from
/// strided lines (the slow data layout of the paper's Fig. 2) instead of
/// transposed in registers.
void advect_lines_lat_gather(const float* src, std::ptrdiff_t line_stride,
                             float* dst, std::ptrdiff_t dst_line_stride,
                             int n, const LineShift& shift,
                             AdvectWorkspace& ws);

}  // namespace v6d::vlasov
