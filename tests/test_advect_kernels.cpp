#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "simd/dispatch.hpp"
#include "vlasov/advect_kernels.hpp"

namespace {

using namespace v6d::vlasov;

// The vector kernels mirror the scalar reference operation for operation,
// so without FMA they must agree bit for bit.  An FMA build may contract
// the flux polynomial differently on the two sides; there 2e-6 holds.
::testing::AssertionResult same_result(float ref, float got) {
  if (v6d::simd::isa_info().has_fma) {
    if (std::fabs(ref - got) <= 2e-6f) return ::testing::AssertionSuccess();
  } else if (std::memcmp(&ref, &got, sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
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
  const int L = kLanes;
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
  advect_lines_lat(src.data(), n, lat.data(), n, n, shift, ws);
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
  advect_lines_simd(interleaved.data(), L, simd_out.data(), L, n, shift,
                    ws);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      ASSERT_TRUE(same_result(ref[static_cast<std::size_t>(l) * n + i],
                              simd_out[static_cast<std::size_t>(i) * L + l]))
          << "simd i=" << i << " l=" << l;
}

INSTANTIATE_TEST_SUITE_P(ShiftSweep, KernelEquivalence,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0, 1.3, 2.2,
                                           -0.4, -1.1));

// Advect one lane-interleaved group with per-lane shifts xi[0..L) the way
// the z position sweep does — one vector call when per_lane returns a
// shift, the scalar kernel lane by lane when it does not — and require
// every lane to match its own scalar line.
void expect_group_matches_scalar(const double* xi, int n,
                                 bool expect_vector) {
  const int L = kLanes;
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
    advect_lines_simd(src.data(), L, out.data(), L, n, *shift, ws);
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
  double xi[kLanes];
  for (int l = 0; l < kLanes; ++l) xi[l] = 0.1 + 0.07 * l;  // same floor (0)
  expect_group_matches_scalar(xi, 36, /*expect_vector=*/true);
}

TEST(KernelEquivalence, PerLaneFloorsMinusOneAndZeroBlendInVector) {
  // A group straddling u = 0: floors -1 and 0 run as one vector call.
  double xi[kLanes];
  for (int l = 0; l < kLanes; ++l) xi[l] = -0.3 + 0.15 * l;
  const auto blended = LineShift::per_lane(xi, Limiter::kMpp);
  ASSERT_TRUE(blended && blended->mixed && !blended->pure_shift);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/true);

  // Whole-cell lanes on both floors take the blended pure-shift copy.
  for (int l = 0; l < kLanes; ++l) xi[l] = l % 2 ? 0.0 : -1.0;
  const auto copied = LineShift::per_lane(xi, Limiter::kMpp);
  ASSERT_TRUE(copied && copied->mixed && copied->pure_shift);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/true);
}

TEST(KernelEquivalence, PerLaneFloorsSpanningTwoIntegersRunScalar) {
  // xi from -0.5 to exactly 1.0 holds floors -1, 0 and 1: per_lane
  // refuses the group and every lane runs the scalar kernel.
  double xi[kLanes];
  for (int l = 0; l < kLanes; ++l) xi[l] = -0.5 + 1.5 * l / (kLanes - 1);
  ASSERT_EQ(xi[kLanes - 1], 1.0);
  expect_group_matches_scalar(xi, 30, /*expect_vector=*/false);

  // Floors 0 and 1 differ by one, but the blended stencil of the lanes at
  // floor 0 would need a fourth ghost cell that no lane needs on its own.
  for (int l = 0; l < kLanes; ++l) xi[l] = l + 1 < kLanes ? 0.4 : 1.0;
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

TEST(Workspace, EnsureGrowsMonotonically) {
  AdvectWorkspace ws;
  ws.ensure(10, 3, 8);
  const auto in0 = ws.in.size();
  ws.ensure(5, 3, 8);  // smaller request must not shrink
  EXPECT_EQ(ws.in.size(), in0);
  ws.ensure(100, 5, 8);
  EXPECT_GE(ws.in.size(), static_cast<std::size_t>((100 + 10) * 8));
}

}  // namespace
