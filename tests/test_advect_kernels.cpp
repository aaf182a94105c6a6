#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

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

class KernelEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalence, ScalarSimdLatGatherAgree) {
  const double xi = GetParam();
  const int n = 40;
  const int L = kSweepLanes;
  const auto src = make_lines(n, L);
  AdvectWorkspace ws;

  // Scalar reference, line by line.
  std::vector<float> ref(static_cast<std::size_t>(L) * n);
  for (int l = 0; l < L; ++l)
    advect_line_strided_scalar(src.data() + static_cast<std::size_t>(l) * n,
                               1, ref.data() + static_cast<std::size_t>(l) * n,
                               1, n, xi, Limiter::kMpp, ws);

  const LineShift shift = LineShift::uniform(xi, Limiter::kMpp);

  // LAT over the same contiguous lines.
  std::vector<float> lat(static_cast<std::size_t>(L) * n);
  ASSERT_EQ(advect_lines_lat(src.data(), n, lat.data(), n, n, L, shift, ws),
            L);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_result(ref[i], lat[i])) << "lat idx " << i;

  // Gather-style SIMD.
  std::vector<float> gat(static_cast<std::size_t>(L) * n);
  advect_lines_lat_gather(src.data(), n, gat.data(), n, n, shift, ws);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_result(ref[i], gat[i])) << "gather idx " << i;

  // Lane-interleaved SIMD: transpose the storage so lanes are contiguous.
  std::vector<float> interleaved(static_cast<std::size_t>(n) * L);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      interleaved[static_cast<std::size_t>(i) * L + l] =
          src[static_cast<std::size_t>(l) * n + i];
  std::vector<float> simd_out(static_cast<std::size_t>(n) * L);
  ASSERT_EQ(advect_lines_simd(interleaved.data(), L, simd_out.data(), L, n,
                              L, shift, ws),
            L);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      ASSERT_TRUE(same_result(ref[static_cast<std::size_t>(l) * n + i],
                              simd_out[static_cast<std::size_t>(i) * L + l]))
          << "simd i=" << i << " l=" << l;
}

INSTANTIATE_TEST_SUITE_P(ShiftSweep, KernelEquivalence,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0, 1.3, 2.2,
                                           -0.4, -1.1));

TEST(KernelEquivalence, PanelsRunFullGroupsAndLeaveTheTail) {
  // A panel of two full lane groups plus three lines: the vector kernels
  // advect the groups in place and leave the tail lines to the caller.
  const int n = 23, lanes = 2 * kSweepLanes + 3, wide = 2 * kSweepLanes;
  const double xi = 0.37;
  const LineShift shift = LineShift::uniform(xi, Limiter::kMpp);
  const auto lines = make_lines(n, lanes);  // line l at l*n
  AdvectWorkspace ws;
  std::vector<float> ref(lines.size());
  for (int l = 0; l < lanes; ++l)
    advect_line_strided_scalar(lines.data() + static_cast<std::size_t>(l) * n,
                               1, ref.data() + static_cast<std::size_t>(l) * n,
                               1, n, xi, Limiter::kMpp, ws);

  auto lat = lines;
  ASSERT_EQ(advect_lines_lat(lat.data(), n, lat.data(), n, n, lanes, shift,
                             ws),
            wide);
  std::vector<float> simd_panel(lines.size());  // cell i, lane l at i*lanes+l
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < lanes; ++l)
      simd_panel[static_cast<std::size_t>(i) * lanes + l] =
          lines[static_cast<std::size_t>(l) * n + i];
  const auto simd_in = simd_panel;
  ASSERT_EQ(advect_lines_simd(simd_panel.data(), lanes, simd_panel.data(),
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

// Advect one lane-interleaved group with per-lane shifts xi[0..L) the way
// the z position sweep does — one vector call when per_lane returns a
// shift, the scalar kernel lane by lane when it does not — and require
// every lane to match its own scalar line.
void expect_group_matches_scalar(const double* xi, int n,
                                 bool expect_vector) {
  const int L = kSweepLanes;
  AdvectWorkspace ws;
  const auto lines = make_lines(n, L);
  std::vector<float> src(static_cast<std::size_t>(n) * L);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      src[static_cast<std::size_t>(i) * L + l] =
          lines[static_cast<std::size_t>(l) * n + i];

  std::vector<float> out(static_cast<std::size_t>(n) * L);
  const auto shift = LineShift::per_lane(xi, Limiter::kMpp);
  ASSERT_EQ(shift.has_value(), expect_vector);
  if (shift) {
    ASSERT_EQ(advect_lines_simd(src.data(), L, out.data(), L, n, L, *shift,
                                ws),
              L);
  } else {
    for (int l = 0; l < L; ++l)
      advect_line_strided_scalar(src.data() + l, L, out.data() + l, L, n,
                                 xi[l], Limiter::kMpp, ws);
  }

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

TEST(KernelEquivalence, PerLaneShiftsMatchScalar) {
  double xi[kSweepLanes];
  // Every lane at floor 0.
  for (int l = 0; l < kSweepLanes; ++l) xi[l] = 0.1 + 0.07 * l;
  expect_group_matches_scalar(xi, 36, /*expect_vector=*/true);
}

TEST(KernelEquivalence, PerLaneFloorsMinusOneAndZeroBlendInVector) {
  // A group straddling u = 0: floors -1 and 0 run as one vector call.
  double xi[kSweepLanes];
  for (int l = 0; l < kSweepLanes; ++l) xi[l] = -0.3 + 0.15 * l;
  const auto blended = LineShift::per_lane(xi, Limiter::kMpp);
  ASSERT_TRUE(blended && blended->mixed && !blended->pure_shift);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/true);

  // Whole-cell lanes on both floors take the blended pure-shift copy.
  for (int l = 0; l < kSweepLanes; ++l) xi[l] = l % 2 ? 0.0 : -1.0;
  const auto copied = LineShift::per_lane(xi, Limiter::kMpp);
  ASSERT_TRUE(copied && copied->mixed && copied->pure_shift);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/true);
}

TEST(KernelEquivalence, PerLaneFloorsSpanningTwoIntegersRunScalar) {
  // xi from -0.5 to exactly 1.0 holds floors -1, 0 and 1: per_lane
  // refuses the group and every lane runs the scalar kernel.
  double xi[kSweepLanes];
  for (int l = 0; l < kSweepLanes; ++l)
    xi[l] = -0.5 + 1.5 * l / (kSweepLanes - 1);
  ASSERT_EQ(xi[kSweepLanes - 1], 1.0);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/false);

  // Floors 0 and 1 differ by one, but the blended stencil of the lanes at
  // floor 0 would need a fourth ghost cell that no lane needs on its own.
  for (int l = 0; l < kSweepLanes; ++l) xi[l] = l + 1 < kSweepLanes ? 0.4 : 1.0;
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/false);
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

TEST(Workspace, PanelsStageExactlyWhatTheyUse) {
  // A SIMD panel stages its padded input and one group's fluxes and
  // writes its results in place: no staged output.  A LAT panel stages
  // its results too, before transposing them back.
  const int n = 12, lanes = 144;
  const LineShift shift = LineShift::uniform(0.37, Limiter::kMpp);
  const auto padded = static_cast<std::size_t>(n + 2 * shift.max_ghost);
  std::vector<float> block(static_cast<std::size_t>(n) * lanes, 0.5f);
  AdvectWorkspace ws;
  advect_lines_simd(block.data(), lanes, block.data(), lanes, n, lanes, shift,
                    ws);
  EXPECT_EQ(ws.in.size(), padded * lanes);
  EXPECT_EQ(ws.out.size(), 0u);
  EXPECT_EQ(ws.flux.size(), static_cast<std::size_t>(n + 1) * kSweepLanes);

  AdvectWorkspace lat_ws;
  advect_lines_lat(block.data(), n, block.data(), n, n, n, shift, lat_ws);
  EXPECT_EQ(lat_ws.in.size(), padded * n);
  EXPECT_EQ(lat_ws.out.size(), static_cast<std::size_t>(n) * n);
}

TEST(Workspace, EnsureGrowsMonotonically) {
  AdvectWorkspace ws;
  ws.ensure(10, 3, 8, 8);
  const auto in0 = ws.in.size();
  ws.ensure(5, 3, 8, 8);  // smaller request must not shrink
  EXPECT_EQ(ws.in.size(), in0);
  ws.ensure(100, 5, 8, 8);
  EXPECT_GE(ws.in.size(), static_cast<std::size_t>((100 + 10) * 8));
}

}  // namespace
