// Line-sweep kernels for the six split advection directions (§5.3).
//
// Every sweep in the 6-D solver reduces to: advance a batch of 1-D lines by
// a shift xi.  Three implementations are provided:
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
// L-lane group of it, L being the sweep tier's lane count
// (simd::sweep_lanes: 4 on the baseline tier, 16 on AVX-512).  Lanes past
// the last L-lane group run kSweepLanes = 4-lane groups, and the lanes
// past those are left to the scalar kernel.  Zero ghosts are what the
// velocity sweeps need: f has compact support inside the velocity cube.
// Position sweeps have nonzero ghosts (a neighbor's faces or the line's
// periodic image); vlasov::advect_position_axis stages those itself and
// runs the same flux cores (advect_line_scalar,
// detail::sl_mpp5_kernel_vec).  The panel kernels are inline templates on
// L, defined in advect_vec_impl.hpp (include it to call them), so each
// sweep tier compiles them at its own width (simd/dispatch.hpp).
//
// A lane performs the same float operations at any width and no build
// contracts a multiply-add, so scalar, SIMD and LAT agree bit for bit at
// every lane count and in every build.
//
// Shifts reach the vector kernels as LineShift<L> vectors, which a tier
// body builds from plain scalars: LaneShift (one xi) or GroupShifts (a
// table of per-lane xi).  Baseline code builds those; no vector type
// crosses from it into a tiered body (simd/dispatch.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "common/aligned.hpp"
#include "simd/dispatch.hpp"
#include "simd/pack.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace v6d::vlasov {

/// Lanes of the narrowest vector group (simd/dispatch.hpp).
using simd::kSweepLanes;

/// What the lanes of one vector group share.  Lanes may differ in xi, and
/// in floor(xi) by one: a group's LineShift marks the lanes whose floor is
/// s + 1 (a group that straddles u = 0 holds floors -1 and 0).
struct GroupShape {
  int s = 0;                // floor(xi) of the lanes at the lower floor
  bool mixed = false;       // some lane's floor is s + 1
  bool pure_shift = false;  // every lane is an exact whole-cell translation
  bool limit = false;       // apply the MP limiter (any lane has theta > 0)
  int max_ghost = 0;        // ghost cells the group requires
  Limiter limiter = Limiter::kNone;
};

/// Per-lane fields of a flux setup: w0..w4, theta, inv_theta (0 when
/// theta ~ 0), the adaptive Suresh-Huynh alpha and alpha / 3.0f
/// (pre-rounded, matches scalar).
inline constexpr int kLaneFields = 9;

/// The flux setup of one line at shift xi = s + theta, theta in [0, 1), in
/// plain scalars, rounded to float as the scalar kernel rounds them.
struct LaneShift {
  float fields[kLaneFields] = {};
  GroupShape shape;  // as a group of this one lane

  static LaneShift at(double xi, Limiter limiter);
};

/// The per-lane shifts of consecutive groups of `lanes` lanes, as plain
/// floats laid out for one vector load per field, and each group's shape.
/// Groups whose lanes hold the same shifts share one entry, so a sweep's
/// table stays a few KiB (at nu = 12: one entry per iux for x, 9 for y, 3
/// for z at 16 lanes).  A group that one vector call cannot serve has no
/// shape: its lanes' floors differ by more than one, or the blended stencil
/// of mixed floors would read further than the widest lane's own stencil.
/// Both need a lane at |xi| >= 1; under the drift's |xi| <= 1 that is a lane
/// at xi = +1 exactly.  Such groups take the scalar kernel lane by lane.
class GroupShifts {
 public:
  /// Lane l of group g has shift xi(g * lanes + l).
  GroupShifts(const std::function<double(std::ptrdiff_t)>& xi, int groups,
              int lanes, Limiter limiter);

  int groups() const { return static_cast<int>(entry_.size()); }
  int lanes() const { return lanes_; }
  const std::optional<GroupShape>& shape(int g) const {
    return shapes_[entry_[g]];
  }
  /// Field k (LaneShift::fields order) of group g's lanes.
  const float* field(int g, int k) const {
    return fields_.data() +
           (static_cast<std::ptrdiff_t>(entry_[g]) * kLaneFields + k) * lanes_;
  }
  /// Group g's lanes at floor s + 1: -1, else 0.
  const std::int32_t* upper(int g) const {
    return upper_.data() + static_cast<std::ptrdiff_t>(entry_[g]) * lanes_;
  }

 private:
  int lanes_ = 0;
  std::vector<int> entry_;  // per group: the entry of its shifts
  // Per entry: its lanes' xi, its shape, its fields and upper lanes.
  std::vector<double> xi_;
  std::vector<std::optional<GroupShape>> shapes_;
  AlignedVector<float> fields_;
  AlignedVector<std::int32_t> upper_;
};

/// The flux setup of one L-lane group, as the vector kernel reads it.  A
/// tier body builds it from scalars at its own width (simd/dispatch.hpp).
template <int L>
struct LineShift : GroupShape {
  using P = simd::Pack<float, L>;
  P w0, w1, w2, w3, w4;  // fractional flux weights per lane
  P theta, inv_theta;    // fractional shift per lane (inv 0 when theta ~ 0)
  P alpha;               // per-lane adaptive Suresh-Huynh alpha
  P alpha_third;         // alpha / 3.0f (pre-rounded, matches scalar)
  typename P::Mask upper{};  // lanes whose floor(xi) is s + 1

  /// `lane`'s shift in every lane.
  static LineShift uniform(const LaneShift& lane) {
    LineShift sh;
    static_cast<GroupShape&>(sh) = lane.shape;
    for (int k = 0; k < kLaneFields; ++k)
      sh.field(k) = P::broadcast(lane.fields[k]);
    return sh;
  }

  /// Group g of an L-lane table; the group must have a shape.
  static LineShift load(const GroupShifts& table, int g) {
    LineShift sh;
    static_cast<GroupShape&>(sh) = *table.shape(g);
    for (int k = 0; k < kLaneFields; ++k)
      sh.field(k) = P::load(table.field(g, k));
    static_assert(sizeof(sh.upper) == L * sizeof(std::int32_t));
    std::memcpy(&sh.upper, table.upper(g), sizeof(sh.upper));
    return sh;
  }

 private:
  P& field(int k) {
    P* const fields[kLaneFields] = {&w0, &w1,        &w2,    &w3,
                                    &w4, &theta,     &inv_theta,
                                    &alpha, &alpha_third};
    return *fields[k];
  }
};

/// Reusable scratch for the sweep kernels.  Each buffer holds what one
/// call stages, no more, and grows to the largest such call; it never
/// shrinks, so a sweep allocates only on its first lines.
struct AdvectWorkspace {
  AlignedVector<float> in;    // padded input panel: (n + 2*ghost) * lanes
  AlignedVector<float> out;   // staged results: n * out_lanes
  AlignedVector<float> flux;  // one lane group's fluxes: (n + 1) * group

  /// Room for a padded panel of `lanes` lines of n cells, the fluxes of
  /// one `group`-lane group, and `out_lanes` staged result lines (0 when
  /// the kernel writes its results straight to their destination).
  void ensure(int n, int ghost, int lanes, int out_lanes, int group);
};

/// Scalar reference: one strided line. src/dst address cell 0; cells are
/// `stride` floats apart. src and dst may alias.
void advect_line_strided_scalar(const float* src, std::ptrdiff_t stride,
                                float* dst, std::ptrdiff_t dst_stride, int n,
                                double xi, Limiter limiter,
                                AdvectWorkspace& ws);

/// SIMD: a panel of `lanes` lines whose lane index is memory-contiguous,
/// every line advected by `shift`.  src addresses (cell 0, lane 0); cells
/// are `cell_stride` floats apart; lane l of cell i lives at
/// src + i*cell_stride + l.  Advects the panel's L-lane groups, then its
/// kSweepLanes-lane groups, and returns the lanes covered,
/// lanes - lanes % kSweepLanes: the caller advects the rest with the
/// scalar kernel.  src and dst may alias.
template <int L>
inline int advect_lines_simd(const float* src, std::ptrdiff_t cell_stride,
                             float* dst, std::ptrdiff_t dst_cell_stride,
                             int n, int lanes, const LaneShift& shift,
                             AdvectWorkspace& ws);

/// LAT: a panel of `lanes` lines along the contiguous axis.  Line l starts
/// at src + l*line_stride; cells within a line are adjacent floats.  Lanes
/// and return value as advect_lines_simd.  src and dst may alias.
template <int L>
inline int advect_lines_lat(const float* src, std::ptrdiff_t line_stride,
                            float* dst, std::ptrdiff_t dst_line_stride, int n,
                            int lanes, const LaneShift& shift,
                            AdvectWorkspace& ws);

/// "Naive SIMD" variant of the LAT case used by the Table-1 bench:
/// kSweepLanes lines whose lanes are gathered element-by-element from
/// strided lines (the slow data layout of the paper's Fig. 2) instead of
/// transposed in registers.
void advect_lines_lat_gather(const float* src, std::ptrdiff_t line_stride,
                             float* dst, std::ptrdiff_t dst_line_stride,
                             int n, const LaneShift& shift,
                             AdvectWorkspace& ws);

}  // namespace v6d::vlasov
