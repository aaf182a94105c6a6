#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/pack.hpp"
#include "simd/transpose.hpp"

namespace {

using namespace v6d::simd;

template <int N>
void expect_transpose_roundtrip() {
  float data[N][N];
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) data[i][j] = static_cast<float>(i * N + j);
  Pack<float, N> rows[N];
  for (int i = 0; i < N; ++i) rows[i] = Pack<float, N>::load(data[i]);
  transpose(rows);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      ASSERT_EQ(rows[i][j], data[j][i]) << "N=" << N << " i=" << i << " j=" << j;
  transpose(rows);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) ASSERT_EQ(rows[i][j], data[i][j]);
}

TEST(SimdTranspose, Exact4) { expect_transpose_roundtrip<4>(); }
TEST(SimdTranspose, Exact8) { expect_transpose_roundtrip<8>(); }
TEST(SimdTranspose, Exact16) { expect_transpose_roundtrip<16>(); }

TEST(SimdTranspose, TileMoveMatchesScalar) {
  constexpr int N = kNativeFloatWidth;
  const long stride = 37;  // deliberately non-multiple of N
  std::vector<float> src(static_cast<std::size_t>(N) * stride);
  std::iota(src.begin(), src.end(), 0.0f);
  std::vector<float> dst(static_cast<std::size_t>(N) * 41, -1.0f);
  transpose_tile<float, N>(src.data(), stride, dst.data(), 41);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      EXPECT_EQ(dst[static_cast<std::size_t>(i) * 41 + j],
                src[static_cast<std::size_t>(j) * stride + i]);
}

TEST(SimdPack, ArithmeticMatchesScalar) {
  constexpr int N = 8;
  using P = Pack<float, N>;
  float a_raw[N], b_raw[N];
  for (int i = 0; i < N; ++i) {
    a_raw[i] = 0.5f * i - 2.0f;
    b_raw[i] = 1.0f + 0.25f * i;
  }
  const P a = P::load(a_raw), b = P::load(b_raw);
  const P sum = a + b, diff = a - b, prod = a * b, quot = a / b;
  for (int i = 0; i < N; ++i) {
    EXPECT_FLOAT_EQ(sum[i], a_raw[i] + b_raw[i]);
    EXPECT_FLOAT_EQ(diff[i], a_raw[i] - b_raw[i]);
    EXPECT_FLOAT_EQ(prod[i], a_raw[i] * b_raw[i]);
    EXPECT_FLOAT_EQ(quot[i], a_raw[i] / b_raw[i]);
  }
}

TEST(SimdPack, MinMaxAbsSelect) {
  constexpr int N = 8;
  using P = Pack<float, N>;
  float a_raw[N], b_raw[N];
  for (int i = 0; i < N; ++i) {
    a_raw[i] = (i % 2 ? -1.0f : 1.0f) * i;
    b_raw[i] = 3.0f - i;
  }
  const P a = P::load(a_raw), b = P::load(b_raw);
  const P lo = v6d::simd::min(a, b), hi = v6d::simd::max(a, b), ab = abs(a);
  for (int i = 0; i < N; ++i) {
    EXPECT_FLOAT_EQ(lo[i], std::min(a_raw[i], b_raw[i]));
    EXPECT_FLOAT_EQ(hi[i], std::max(a_raw[i], b_raw[i]));
    EXPECT_FLOAT_EQ(ab[i], std::fabs(a_raw[i]));
  }
}

template <int N>
void expect_abs_matches_fabs_bitwise() {
  using P = Pack<float, N>;
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {0.0f,    -0.0f,   denorm,   -denorm,
                          3e-39f,  -3e-39f, inf,      -inf,
                          1.0f,    -1.0f,   2.5f,     -7.25f,
                          1e-30f,  -1e30f,  0.1f,     -3.0e38f};
  constexpr int kValues = sizeof(values) / sizeof(values[0]);
  for (int base = 0; base < kValues; base += N) {
    float raw[N];
    for (int l = 0; l < N; ++l) raw[l] = values[(base + l) % kValues];
    const P a = v6d::simd::abs(P::load(raw));
    for (int l = 0; l < N; ++l) {
      const float want = std::fabs(raw[l]);
      const float got = a[l];
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
          << "N=" << N << " abs(" << raw[l] << ") = " << got;
    }
  }
}

TEST(SimdPack, AbsMatchesFabsBitwise) {
  expect_abs_matches_fabs_bitwise<4>();
  expect_abs_matches_fabs_bitwise<8>();
  expect_abs_matches_fabs_bitwise<16>();
}

template <int N>
void expect_all_mask() {
  using P = Pack<float, N>;
  float raw[N];
  for (int l = 0; l < N; ++l) raw[l] = 1.0f + static_cast<float>(l);
  const P a = P::load(raw);
  EXPECT_TRUE((v6d::simd::all<float, N>(a > P::zero()))) << "N=" << N;
  for (int l = 0; l < N; ++l) {
    P cleared = a;
    cleared.set(l, -1.0f);
    EXPECT_FALSE((v6d::simd::all<float, N>(cleared > P::zero())))
        << "N=" << N << " lane " << l << " cleared";
  }
  EXPECT_FALSE((v6d::simd::all<float, N>(a < P::zero()))) << "N=" << N;
}

TEST(SimdPack, AllMask) {
  expect_all_mask<4>();
  expect_all_mask<8>();
  expect_all_mask<16>();
}

float scalar_minmod(float a, float b) {
  if (a * b <= 0.0f) return 0.0f;
  return std::fabs(a) < std::fabs(b) ? a : b;
}

TEST(SimdPack, MinmodAndMedianMatchScalar) {
  constexpr int N = 8;
  using P = Pack<float, N>;
  const float cases[][2] = {{1.0f, 2.0f},  {-1.0f, 2.0f}, {2.0f, 1.0f},
                            {-2.0f, -1.0f}, {0.0f, 3.0f},  {3.0f, 0.0f},
                            {-0.5f, -3.0f}, {1.5f, 1.5f}};
  float a_raw[N], b_raw[N];
  for (int i = 0; i < N; ++i) {
    a_raw[i] = cases[i][0];
    b_raw[i] = cases[i][1];
  }
  const P mm = minmod(P::load(a_raw), P::load(b_raw));
  for (int i = 0; i < N; ++i)
    EXPECT_FLOAT_EQ(mm[i], scalar_minmod(a_raw[i], b_raw[i])) << i;

  // median(a,b,c) must be the middle value.
  const P med = median(P::broadcast(5.0f), P::broadcast(1.0f),
                       P::broadcast(3.0f));
  for (int i = 0; i < N; ++i) EXPECT_FLOAT_EQ(med[i], 3.0f);
}

TEST(SimdPack, SqrtAndFma) {
  constexpr int N = 8;
  using P = Pack<float, N>;
  float raw[N];
  for (int i = 0; i < N; ++i) raw[i] = 1.0f + i * i;
  const P s = v6d::simd::sqrt(P::load(raw));
  for (int i = 0; i < N; ++i) EXPECT_FLOAT_EQ(s[i], std::sqrt(raw[i]));
  const P f = fma(P::broadcast(2.0f), P::broadcast(3.0f), P::broadcast(4.0f));
  for (int i = 0; i < N; ++i) EXPECT_FLOAT_EQ(f[i], 10.0f);
}

TEST(SimdPack, HorizontalSum) {
  constexpr int N = 8;
  using P = Pack<float, N>;
  float raw[N];
  for (int i = 0; i < N; ++i) raw[i] = static_cast<float>(i + 1);
  EXPECT_FLOAT_EQ(horizontal_sum(P::load(raw)), 36.0f);
}

TEST(SimdDispatch, ReportsIsa) {
  // isa_info() describes the tier the sweeps run on: every tier calls the
  // 4-lane kernels and none contracts a multiply-add.
  const IsaInfo info = isa_info();
  EXPECT_FALSE(info.name.empty());
  EXPECT_EQ(info.float_width, 4);
  EXPECT_EQ(info.float_width, kSweepLanes);
  EXPECT_FALSE(info.has_fma);
  // The baseline tier is named after the build's own ISA.
  for (const SweepTier tier : supported_tiers()) {
    const ScopedSweepTier pin(tier);
    if (tier == SweepTier::kAvx512)
      EXPECT_EQ(isa_info().name, "AVX-512");
    else
      EXPECT_NE(isa_info().name, "AVX-512");
  }
}

TEST(SimdDispatch, RunsTheWidestSupportedTier) {
  const auto tiers = supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), SweepTier::kBaseline);
  EXPECT_EQ(sweep_tier(), tiers.back());
  for (const SweepTier tier : tiers) EXPECT_TRUE(tier_supported(tier));
}

}  // namespace
