#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "gravity/pp_kernel.hpp"

namespace {

using namespace v6d::gravity;

TEST(ShortrangeS, LimitsAndMonotonicity) {
  EXPECT_NEAR(shortrange_s(0.0), 1.0, 1e-14);   // no cut at r = 0
  EXPECT_LT(shortrange_s(4.0), 1e-5);           // fully cut far away
  double prev = shortrange_s(0.0);
  for (double u = 0.1; u < 4.0; u += 0.1) {
    const double s = shortrange_s(u);
    EXPECT_LT(s, prev + 1e-12) << u;  // monotonically decreasing
    prev = s;
  }
}

TEST(CutoffPoly, FitsBelowTolerance) {
  const CutoffPoly poly(2.25, 14);
  EXPECT_LT(poly.max_fit_error(), 5e-6);
}

TEST(CutoffPoly, ZeroBeyondCutoff) {
  const CutoffPoly poly(2.0, 12);
  EXPECT_EQ(poly.eval(2.001f), 0.0f);
  EXPECT_GT(poly.eval(0.0f), 0.99f);
}

struct PpFixture : ::testing::Test {
  void SetUp() override {
    v6d::Xoshiro256 rng(1234);
    const int ns = 200, nt = 16;
    for (int i = 0; i < ns; ++i) {
      sx.push_back(rng.next_double() * 2.0 - 1.0);
      sy.push_back(rng.next_double() * 2.0 - 1.0);
      sz.push_back(rng.next_double() * 2.0 - 1.0);
      sm.push_back(0.5 + rng.next_double());
    }
    for (int i = 0; i < nt; ++i) {
      tx.push_back(rng.next_double() * 2.0 - 1.0);
      ty.push_back(rng.next_double() * 2.0 - 1.0);
      tz.push_back(rng.next_double() * 2.0 - 1.0);
    }
  }
  std::vector<double> sx, sy, sz, sm, tx, ty, tz;
};

TEST_F(PpFixture, SimdMatchesScalarNoCutoff) {
  PpKernelParams params;
  params.eps = 0.05;
  std::vector<double> ax(tx.size(), 0.0), ay(tx.size(), 0.0),
      az(tx.size(), 0.0);
  pp_accumulate_scalar(tx.data(), ty.data(), tz.data(), tx.size(), sx.data(),
                       sy.data(), sz.data(), sm.data(), sx.size(), params,
                       ax.data(), ay.data(), az.data());

  std::vector<float> fsx(sx.begin(), sx.end()), fsy(sy.begin(), sy.end()),
      fsz(sz.begin(), sz.end()), fsm(sm.begin(), sm.end()),
      ftx(tx.begin(), tx.end()), fty(ty.begin(), ty.end()),
      ftz(tz.begin(), tz.end());
  std::vector<float> fax(tx.size(), 0.0f), fay(tx.size(), 0.0f),
      faz(tx.size(), 0.0f);
  CutoffPoly poly(3.0, 12);
  pp_accumulate_simd(ftx.data(), fty.data(), ftz.data(), ftx.size(),
                     fsx.data(), fsy.data(), fsz.data(), fsm.data(),
                     fsx.size(), params, poly, fax.data(), fay.data(),
                     faz.data());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const double scale = std::fabs(ax[i]) + std::fabs(ay[i]) +
                         std::fabs(az[i]) + 1.0;
    EXPECT_NEAR(fax[i], ax[i], 2e-4 * scale) << i;
    EXPECT_NEAR(fay[i], ay[i], 2e-4 * scale) << i;
    EXPECT_NEAR(faz[i], az[i], 2e-4 * scale) << i;
  }
}

TEST_F(PpFixture, SimdMatchesScalarWithSplitCutoff) {
  PpKernelParams params;
  params.eps = 0.05;
  params.rs = 0.15;
  params.rcut = 4.5 * params.rs;
  std::vector<double> ax(tx.size(), 0.0), ay(tx.size(), 0.0),
      az(tx.size(), 0.0);
  pp_accumulate_scalar(tx.data(), ty.data(), tz.data(), tx.size(), sx.data(),
                       sy.data(), sz.data(), sm.data(), sx.size(), params,
                       ax.data(), ay.data(), az.data());

  std::vector<float> fsx(sx.begin(), sx.end()), fsy(sy.begin(), sy.end()),
      fsz(sz.begin(), sz.end()), fsm(sm.begin(), sm.end()),
      ftx(tx.begin(), tx.end()), fty(ty.begin(), ty.end()),
      ftz(tz.begin(), tz.end());
  std::vector<float> fax(tx.size(), 0.0f), fay(tx.size(), 0.0f),
      faz(tx.size(), 0.0f);
  CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  pp_accumulate_simd(ftx.data(), fty.data(), ftz.data(), ftx.size(),
                     fsx.data(), fsy.data(), fsz.data(), fsm.data(),
                     fsx.size(), params, poly, fax.data(), fay.data(),
                     faz.data());
  double worst = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    worst = std::max({worst, std::fabs(fax[i] - ax[i]),
                      std::fabs(fay[i] - ay[i]), std::fabs(faz[i] - az[i])});
    norm = std::max({norm, std::fabs(ax[i]), std::fabs(ay[i]),
                     std::fabs(az[i])});
  }
  EXPECT_LT(worst, 5e-4 * std::max(norm, 1.0));
}

/// pp_accumulate_simd's summation order written out one float operation
/// at a time: lane l sums the sources s = l (mod 4) of the full groups, the
/// lanes add in order, then the tail adds one source at a time.  No build
/// contracts a multiply-add, so each line rounds as the packs do.
void four_lane_reference(const std::vector<float>* t,
                         const std::vector<float>* s,
                         const std::vector<float>& sm, std::size_t ns,
                         const PpKernelParams& params, const CutoffPoly& poly,
                         std::vector<float>* a) {
  constexpr std::size_t kLanes = 4;
  const float eps2 = static_cast<float>(params.eps * params.eps);
  const float inv_2rs =
      params.rs > 0.0 ? static_cast<float>(1.0 / (2.0 * params.rs)) : 0.0f;
  const float rcut2 =
      params.rcut > 0.0 ? static_cast<float>(params.rcut * params.rcut) : 0.0f;
  const float x_scale = 2.0f / static_cast<float>(poly.u_cut());
  const auto& c = poly.coeffs();
  const std::size_t full = ns / kLanes * kLanes;
  for (std::size_t i = 0; i < t[0].size(); ++i) {
    float lane[3][kLanes] = {};
    float d[3];
    for (std::size_t j = 0; j < full; ++j) {
      for (int k = 0; k < 3; ++k) d[k] = s[k][j] - t[k][i];
      const float r2 = (d[2] * d[2] + (d[1] * d[1] + d[0] * d[0])) + eps2;
      const float r = std::sqrt(r2);
      float f = sm[j] * (1.0f / (r2 * r));
      if (params.rs > 0.0) {
        const float x = r * inv_2rs * x_scale - 1.0f;
        const float two_x = x + x;
        float b1 = 0.0f, b2 = 0.0f;
        for (std::size_t n = c.size(); n-- > 1;) {
          const float b0 = two_x * b1 + (c[n] - b2);
          b2 = b1;
          b1 = b0;
        }
        f = f * (x * b1 + (c[0] - b2));
      }
      if ((rcut2 > 0.0f && !(r2 < rcut2)) || !(r2 > 0.0f)) f = 0.0f;
      for (int k = 0; k < 3; ++k)
        lane[k][j % kLanes] = f * d[k] + lane[k][j % kLanes];
    }
    float h[3] = {0.0f, 0.0f, 0.0f};
    for (int k = 0; k < 3; ++k)
      for (std::size_t l = 0; l < kLanes; ++l) h[k] += lane[k][l];
    for (std::size_t j = full; j < ns; ++j) {
      for (int k = 0; k < 3; ++k) d[k] = s[k][j] - t[k][i];
      const float r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
      if (r2 == 0.0f || (rcut2 > 0.0f && r2 >= rcut2)) continue;
      const float r = std::sqrt(r2);
      float f = sm[j] / (r2 * r);
      if (params.rs > 0.0) f *= poly.eval(r * inv_2rs);
      for (int k = 0; k < 3; ++k) h[k] += f * d[k];
    }
    for (int k = 0; k < 3; ++k) a[k][i] += h[k];
  }
}

// The lane count is fixed, not the build's native width, so an
// -march=x86-64-v3 or AVX-512 build sums in this order too.
TEST_F(PpFixture, SimdSumsInFourLaneOrderBitForBit) {
  const std::size_t ns = sx.size() - 1;  // a tail of 3 after 49 full groups
  const std::vector<float> t[3] = {{tx.begin(), tx.end()},
                                   {ty.begin(), ty.end()},
                                   {tz.begin(), tz.end()}};
  const std::vector<float> src[3] = {{sx.begin(), sx.end()},
                                     {sy.begin(), sy.end()},
                                     {sz.begin(), sz.end()}};
  const std::vector<float> m(sm.begin(), sm.end());
  PpKernelParams plain;
  plain.eps = 0.05;
  PpKernelParams split = plain;
  split.rs = 0.15;
  split.rcut = 4.5 * split.rs;
  for (const auto& params : {plain, split}) {
    const CutoffPoly poly(params.rs > 0.0 ? params.rcut / (2.0 * params.rs)
                                          : 3.0,
                          14);
    std::vector<float> got[3], want[3];
    for (int k = 0; k < 3; ++k) {
      got[k].assign(t[0].size(), 0.25f);
      want[k] = got[k];
    }
    pp_accumulate_simd(t[0].data(), t[1].data(), t[2].data(), t[0].size(),
                       src[0].data(), src[1].data(), src[2].data(), m.data(),
                       ns, params, poly, got[0].data(), got[1].data(),
                       got[2].data());
    four_lane_reference(t, src, m, ns, params, poly, want);
    for (int k = 0; k < 3; ++k)
      for (std::size_t i = 0; i < t[0].size(); ++i)
        EXPECT_EQ(got[k][i], want[k][i])
            << "axis " << k << " target " << i << " rs " << params.rs;
  }
}

TEST(PpKernel, NewtonThirdLawPair) {
  // Two particles exert equal and opposite forces.
  PpKernelParams params;
  params.eps = 0.0;
  const double px[2] = {0.0, 1.0}, py[2] = {0.0, 0.0}, pz[2] = {0.0, 0.0};
  const double m[2] = {2.0, 3.0};
  double ax[2] = {0, 0}, ay[2] = {0, 0}, az[2] = {0, 0};
  pp_accumulate_scalar(px, py, pz, 2, px, py, pz, m, 2, params, ax, ay, az);
  // a0 = +m1/r^2 = 3, a1 = -m0/r^2 = -2 (acceleration, not force).
  EXPECT_NEAR(ax[0], 3.0, 1e-12);
  EXPECT_NEAR(ax[1], -2.0, 1e-12);
  // Momentum: m0 a0 + m1 a1 = 0.
  EXPECT_NEAR(m[0] * ax[0] + m[1] * ax[1], 0.0, 1e-12);
}

TEST(PpKernel, InverseSquareLaw) {
  PpKernelParams params;
  const double sx[1] = {0.0}, sy[1] = {0.0}, sz[1] = {0.0}, sm[1] = {1.0};
  double prev = 1e30;
  for (double r : {1.0, 2.0, 4.0}) {
    const double tx[1] = {r}, ty[1] = {0.0}, tz[1] = {0.0};
    double ax[1] = {0}, ay[1] = {0}, az[1] = {0};
    pp_accumulate_scalar(tx, ty, tz, 1, sx, sy, sz, sm, 1, params, ax, ay,
                         az);
    EXPECT_NEAR(ax[0], -1.0 / (r * r), 1e-12);
    EXPECT_LT(std::fabs(ax[0]), prev);
    prev = std::fabs(ax[0]);
  }
}

TEST(PpKernel, SofteningBoundsCloseForce) {
  PpKernelParams params;
  params.eps = 0.1;
  const double sx[1] = {0.0}, sy[1] = {0.0}, sz[1] = {0.0}, sm[1] = {1.0};
  const double tx[1] = {1e-6}, ty[1] = {0.0}, tz[1] = {0.0};
  double ax[1] = {0}, ay[1] = {0}, az[1] = {0};
  pp_accumulate_scalar(tx, ty, tz, 1, sx, sy, sz, sm, 1, params, ax, ay, az);
  EXPECT_LT(std::fabs(ax[0]), 1.0 / (params.eps * params.eps));
}

}  // namespace
