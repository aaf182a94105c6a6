#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "vlasov/advect_kernels.hpp"
#include "vlasov/advect_vec_impl.hpp"

namespace {

using namespace v6d::vlasov;

// The vector kernels mirror the scalar reference operation for operation,
// and no build contracts a multiply-add, so they agree bit for bit.
::testing::AssertionResult same_result(float ref, float got) {
  if (std::memcmp(&ref, &got, sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "scalar " << ref << " vs " << got;
}

// Build L lines of length n (line-major storage: line l at l*n).
std::vector<float> make_lines(int n, int lanes) {
  std::vector<float> data(static_cast<std::size_t>(lanes) * n);
  for (int l = 0; l < lanes; ++l)
    for (int i = 0; i < n; ++i)
      data[static_cast<std::size_t>(l) * n + i] = static_cast<float>(
          std::exp(-0.05 * (i - n / 2.0) * (i - n / 2.0)) * (1.0 + 0.2 * l) +
          0.01 * ((i * 7 + l * 3) % 5));
  return data;
}

// The kernels at each lane count a tier runs: 4 (baseline) and 16
// (AVX-512).  Built here for the test's own target, so the 16-lane kernels
// run on every host; a lane's bits do not depend on the encoding.
constexpr int kWide = v6d::simd::sweep_lanes(v6d::simd::SweepTier::kAvx512);

template <int L>
void expect_uniform_kernels_agree(double xi) {
  SCOPED_TRACE("L=" + std::to_string(L));
  const int n = 40;
  const auto src = make_lines(n, L);
  AdvectWorkspace ws;

  // Scalar reference, line by line.
  std::vector<float> ref(static_cast<std::size_t>(L) * n);
  for (int l = 0; l < L; ++l)
    advect_line_strided_scalar(src.data() + static_cast<std::size_t>(l) * n,
                               1, ref.data() + static_cast<std::size_t>(l) * n,
                               1, n, xi, Limiter::kMpp, ws);

  const LaneShift shift = LaneShift::at(xi, Limiter::kMpp);

  // LAT over the same contiguous lines.
  std::vector<float> lat(static_cast<std::size_t>(L) * n);
  ASSERT_EQ(advect_lines_lat<L>(src.data(), n, lat.data(), n, n, L, shift, ws),
            L);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_result(ref[i], lat[i])) << "lat idx " << i;

  // Gather-style SIMD, kSweepLanes lines at a time.
  std::vector<float> gat(static_cast<std::size_t>(L) * n);
  for (int l = 0; l < L; l += kSweepLanes)
    advect_lines_lat_gather(src.data() + static_cast<std::size_t>(l) * n, n,
                            gat.data() + static_cast<std::size_t>(l) * n, n,
                            n, shift, ws);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_result(ref[i], gat[i])) << "gather idx " << i;

  // Lane-interleaved SIMD: transpose the storage so lanes are contiguous.
  std::vector<float> interleaved(static_cast<std::size_t>(n) * L);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      interleaved[static_cast<std::size_t>(i) * L + l] =
          src[static_cast<std::size_t>(l) * n + i];
  std::vector<float> simd_out(static_cast<std::size_t>(n) * L);
  ASSERT_EQ(advect_lines_simd<L>(interleaved.data(), L, simd_out.data(), L, n,
                                 L, shift, ws),
            L);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      ASSERT_TRUE(same_result(ref[static_cast<std::size_t>(l) * n + i],
                              simd_out[static_cast<std::size_t>(i) * L + l]))
          << "simd i=" << i << " l=" << l;
}

class KernelEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalence, ScalarSimdLatGatherAgree) {
  expect_uniform_kernels_agree<kSweepLanes>(GetParam());
  expect_uniform_kernels_agree<kWide>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(ShiftSweep, KernelEquivalence,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0, 1.3, 2.2,
                                           -0.4, -1.1));

// A panel of two full L-lane groups, one 4-lane group (at L > 4) and
// three lines: the vector kernels advect the groups in place and leave
// the tail lines to the caller.
template <int L>
void expect_panel_groups_and_tail() {
  SCOPED_TRACE("L=" + std::to_string(L));
  const int wide = L > kSweepLanes ? 2 * L + kSweepLanes : 2 * L;
  const int n = 23, lanes = wide + 3;
  const double xi = 0.37;
  const LaneShift shift = LaneShift::at(xi, Limiter::kMpp);
  const auto lines = make_lines(n, lanes);  // line l at l*n
  AdvectWorkspace ws;
  std::vector<float> ref(lines.size());
  for (int l = 0; l < lanes; ++l)
    advect_line_strided_scalar(lines.data() + static_cast<std::size_t>(l) * n,
                               1, ref.data() + static_cast<std::size_t>(l) * n,
                               1, n, xi, Limiter::kMpp, ws);

  auto lat = lines;
  ASSERT_EQ(advect_lines_lat<L>(lat.data(), n, lat.data(), n, n, lanes, shift,
                                ws),
            wide);
  std::vector<float> simd_panel(lines.size());  // cell i, lane l at i*lanes+l
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < lanes; ++l)
      simd_panel[static_cast<std::size_t>(i) * lanes + l] =
          lines[static_cast<std::size_t>(l) * n + i];
  const auto simd_in = simd_panel;
  ASSERT_EQ(advect_lines_simd<L>(simd_panel.data(), lanes, simd_panel.data(),
                                 lanes, n, lanes, shift, ws),
            wide);
  for (int l = 0; l < lanes; ++l)
    for (int i = 0; i < n; ++i) {
      const std::size_t line_major = static_cast<std::size_t>(l) * n + i;
      const std::size_t cell_major = static_cast<std::size_t>(i) * lanes + l;
      if (l < wide) {
        ASSERT_TRUE(same_result(ref[line_major], lat[line_major]))
            << "lat l=" << l << " i=" << i;
        ASSERT_TRUE(same_result(ref[line_major], simd_panel[cell_major]))
            << "simd l=" << l << " i=" << i;
      } else {
        ASSERT_EQ(lat[line_major], lines[line_major]) << "lat tail l=" << l;
        ASSERT_EQ(simd_panel[cell_major], simd_in[cell_major])
            << "simd tail l=" << l;
      }
    }
}

TEST(KernelEquivalence, PanelsRunFullGroupsAndLeaveTheTail) {
  expect_panel_groups_and_tail<kSweepLanes>();
  expect_panel_groups_and_tail<kWide>();
}

// The shift of one group with xi[l] in lane l, as a position sweep builds
// it, or none where GroupShifts refuses the group.
template <int L>
std::optional<LineShift<L>> per_lane(const double* xi) {
  const GroupShifts table([xi](std::ptrdiff_t l) { return xi[l]; }, 1, L,
                          Limiter::kMpp);
  if (!table.shape(0)) return std::nullopt;
  return LineShift<L>::load(table, 0);
}

// Advect one lane-interleaved group with per-lane shifts xi[0..L) the way
// a position sweep does — one vector call when per_lane returns a shift,
// the scalar kernel lane by lane when it does not — into out (cell i, lane
// l at i*L + l), from src laid out the same way.
template <int L>
void advect_group(const std::vector<float>& src, std::vector<float>& out,
                  const double* xi, int n, bool expect_vector) {
  AdvectWorkspace ws;
  const auto shift = per_lane<L>(xi);
  ASSERT_EQ(shift.has_value(), expect_vector);
  if (shift) {
    const int ghost = shift->max_ghost;
    ws.ensure(n, ghost, L, 0, L);
    v6d::vlasov::detail::zero_panel_ghosts(ws.in.data(), L, n, ghost);
    std::copy(src.begin(), src.end(), ws.in.begin() + ghost * L);
    v6d::vlasov::detail::sl_mpp5_kernel_vec<L>(ws.in.data(), L, out.data(), L,
                                               n, ghost, *shift,
                                               ws.flux.data());
  } else {
    for (int l = 0; l < L; ++l)
      advect_line_strided_scalar(src.data() + l, L, out.data() + l, L, n,
                                 xi[l], Limiter::kMpp, ws);
  }
}

// The lines of make_lines(n, L), lane-interleaved.
std::vector<float> interleaved_lines(int n, int lanes) {
  const auto lines = make_lines(n, lanes);
  std::vector<float> src(lines.size());
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < lanes; ++l)
      src[static_cast<std::size_t>(i) * lanes + l] =
          lines[static_cast<std::size_t>(l) * n + i];
  return src;
}

// advect_group must leave every lane equal to its own scalar line.
template <int L>
void expect_group_matches_scalar(const double* xi, int n,
                                 bool expect_vector) {
  SCOPED_TRACE("L=" + std::to_string(L));
  const auto src = interleaved_lines(n, L);
  std::vector<float> out(src.size());
  advect_group<L>(src, out, xi, n, expect_vector);
  AdvectWorkspace ws;
  for (int l = 0; l < L; ++l) {
    std::vector<float> ref(static_cast<std::size_t>(n));
    advect_line_strided_scalar(src.data() + l, L, ref.data(), 1, n, xi[l],
                               Limiter::kMpp, ws);
    for (int i = 0; i < n; ++i)
      ASSERT_TRUE(same_result(ref[static_cast<std::size_t>(i)],
                              out[static_cast<std::size_t>(i) * L + l]))
          << "l=" << l << " i=" << i;
  }
}

template <int L>
void expect_per_lane_cases() {
  double xi[L];
  // Every lane at floor 0.
  for (int l = 0; l < L; ++l) xi[l] = 0.1 + 0.8 * l / L;
  expect_group_matches_scalar<L>(xi, 36, /*expect_vector=*/true);

  // A group straddling u = 0: floors -1 and 0 run as one vector call.
  for (int l = 0; l < L; ++l) xi[l] = -0.3 + 0.6 * l / (L - 1);
  const auto blended = per_lane<L>(xi);
  ASSERT_TRUE(blended && blended->mixed && !blended->pure_shift);
  expect_group_matches_scalar<L>(xi, 30, /*expect_vector=*/true);

  // Whole-cell lanes on both floors take the blended pure-shift copy.
  for (int l = 0; l < L; ++l) xi[l] = l % 2 ? 0.0 : -1.0;
  const auto copied = per_lane<L>(xi);
  ASSERT_TRUE(copied && copied->mixed && copied->pure_shift);
  expect_group_matches_scalar<L>(xi, 30, /*expect_vector=*/true);
}

TEST(KernelEquivalence, PerLaneShiftsMatchScalar) {
  expect_per_lane_cases<kSweepLanes>();
  expect_per_lane_cases<kWide>();
}

template <int L>
void expect_refused_groups_run_scalar() {
  double xi[L];
  // xi from -0.5 to exactly 1.0 holds floors -1, 0 and 1, two apart:
  // per_lane refuses the group and every lane runs the scalar kernel.
  for (int l = 0; l < L; ++l) xi[l] = -0.5 + 1.5 * l / (L - 1);
  ASSERT_EQ(xi[L - 1], 1.0);
  expect_group_matches_scalar<L>(xi, 30, /*expect_vector=*/false);

  // Floors 0 and 1 differ by one, but the blended stencil of the lanes at
  // floor 0 would need a fourth ghost cell that no lane needs on its own.
  for (int l = 0; l < L; ++l) xi[l] = l + 1 < L ? 0.4 : 1.0;
  expect_group_matches_scalar<L>(xi, 30, /*expect_vector=*/false);
}

TEST(KernelEquivalence, PerLaneFloorsSpanningTwoIntegersRunScalar) {
  expect_refused_groups_run_scalar<kSweepLanes>();
  expect_refused_groups_run_scalar<kWide>();
}

TEST(KernelEquivalence, IntegerShiftLaneInAFractionalGroupKeepsItsValues) {
  // The 16 lanes of a position-sweep group at odd nu: the middle velocity
  // cell has u = 0, hence xi = 0, while its neighbours' shifts are
  // fractional.  The group runs the flux path, where the xi = 0 lane has
  // zero weights and a flux of +0: it keeps every value of its line, as
  // the scalar kernel's whole-cell copy does, but for -0.0, which
  // f - (+0) + (+0) turns into +0.0.
  constexpr int L = kWide;
  double xi[L];
  int zero_lane = -1;
  for (int l = 0; l < L; ++l) {
    xi[l] = 0.09 * (l - 7);
    if (xi[l] == 0.0) zero_lane = l;
  }
  ASSERT_EQ(zero_lane, 7);
  const auto shift = per_lane<L>(xi);
  ASSERT_TRUE(shift && shift->mixed && !shift->pure_shift && shift->limit);

  const int n = 24, minus_zero_cell = 11;
  auto src = interleaved_lines(n, L);
  src[static_cast<std::size_t>(minus_zero_cell) * L + zero_lane] = -0.0f;
  std::vector<float> out(src.size());
  advect_group<L>(src, out, xi, n, /*expect_vector=*/true);

  AdvectWorkspace ws;
  for (int l = 0; l < L; ++l) {
    std::vector<float> ref(static_cast<std::size_t>(n));
    advect_line_strided_scalar(src.data() + l, L, ref.data(), 1, n, xi[l],
                               Limiter::kMpp, ws);
    for (int i = 0; i < n; ++i) {
      const float got = out[static_cast<std::size_t>(i) * L + l];
      if (l == zero_lane && i == minus_zero_cell) {
        EXPECT_TRUE(std::signbit(ref[static_cast<std::size_t>(i)]));
        EXPECT_TRUE(same_result(0.0f, got)) << "-0.0 becomes +0.0";
      } else {
        ASSERT_TRUE(same_result(ref[static_cast<std::size_t>(i)], got))
            << "l=" << l << " i=" << i;
      }
      if (l == zero_lane) {
        EXPECT_EQ(got, src[static_cast<std::size_t>(i) * L + l]) << "i=" << i;
      }
    }
  }
}

TEST(KernelBoundary, ZeroGhostsDrainMassThroughBoundary) {
  // With zero (outflow) ghosts, advecting a blob off the edge removes it.
  const int n = 20;
  AdvectWorkspace ws;
  std::vector<float> f(static_cast<std::size_t>(n), 0.0f);
  f[18] = 1.0f;
  for (int s = 0; s < 10; ++s) {
    std::vector<float> out(static_cast<std::size_t>(n));
    advect_line_strided_scalar(f.data(), 1, out.data(), 1, n, 0.7,
                               Limiter::kMpp, ws);
    f = out;
  }
  double mass = 0.0;
  for (float v : f) mass += v;
  EXPECT_LT(mass, 1e-3);  // everything left the domain
  for (float v : f) EXPECT_GE(v, 0.0f);
}

// A SIMD panel stages its padded input and one group's fluxes and writes
// its results in place: no staged output.  A LAT panel stages its results
// too, before transposing them back.
template <int L>
void expect_panels_stage_what_they_use() {
  SCOPED_TRACE("L=" + std::to_string(L));
  const int n = 12, lanes = 144;
  const LaneShift shift = LaneShift::at(0.37, Limiter::kMpp);
  const auto padded = static_cast<std::size_t>(n + 2 * shift.shape.max_ghost);
  std::vector<float> block(static_cast<std::size_t>(n) * lanes, 0.5f);
  AdvectWorkspace ws;
  advect_lines_simd<L>(block.data(), lanes, block.data(), lanes, n, lanes,
                       shift, ws);
  EXPECT_EQ(ws.in.size(), padded * lanes);
  EXPECT_EQ(ws.out.size(), 0u);
  EXPECT_EQ(ws.flux.size(), static_cast<std::size_t>(n + 1) * L);

  AdvectWorkspace lat_ws;
  advect_lines_lat<L>(block.data(), n, block.data(), n, n, n, shift, lat_ws);
  EXPECT_EQ(lat_ws.in.size(), padded * n);
  EXPECT_EQ(lat_ws.out.size(), static_cast<std::size_t>(n) * n);
}

TEST(Workspace, PanelsStageExactlyWhatTheyUse) {
  expect_panels_stage_what_they_use<kSweepLanes>();
  expect_panels_stage_what_they_use<kWide>();
}

TEST(Workspace, EnsureGrowsMonotonically) {
  AdvectWorkspace ws;
  ws.ensure(10, 3, 8, 8, 8);
  const auto in0 = ws.in.size();
  ws.ensure(5, 3, 8, 8, 4);  // smaller request must not shrink
  EXPECT_EQ(ws.in.size(), in0);
  ws.ensure(100, 5, 8, 8, 16);
  EXPECT_GE(ws.in.size(), static_cast<std::size_t>((100 + 10) * 8));
}

}  // namespace
