#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "gravity/pp_kernel.hpp"
#include "pp_reference.hpp"
#include "sweep_tiers.hpp"

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

// The sums run in 4 lanes on every tier and in every build, not at the
// tier's or the build's native width, so an -march=x86-64-v3 build or an
// AVX-512 tier that evaluates 16 sources per group sums in this order
// too.  The lengths cover lists of whole 16-lane groups, 16-lane groups
// then 4-lane groups, 4-lane groups alone and the scalar tail after each.
TEST_F(PpFixture, SimdSumsInFourLaneOrderBitForBit) {
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

  // Sources near the origin (inside rcut of every target there) and far
  // from it (beyond rcut of all of them), laid out so that whole groups
  // lie beyond the cutoff before and after groups inside it, at 16 and at
  // 4 lanes, and in the tail.
  const std::vector<float> near_t[3] = {{0.0f, 0.01f, -0.02f},
                                        {0.0f, -0.015f, 0.01f},
                                        {0.0f, 0.02f, 0.005f}};
  std::vector<float> layered[3], layered_m;
  v6d::Xoshiro256 rng(99);
  const auto add = [&](int count, bool far) {
    for (int i = 0; i < count; ++i) {
      for (auto& axis : layered) {
        const double u = 2.0 * rng.next_double() - 1.0;
        axis.push_back(static_cast<float>(
            far ? (u < 0.0 ? -1.0 : 1.0) * (0.8 + 0.5 * std::fabs(u))
                : 0.3 * u));
      }
      layered_m.push_back(static_cast<float>(0.5 + rng.next_double()));
    }
  };
  add(32, true);
  add(16, false);
  add(16, true);
  add(4, true);
  add(4, false);
  add(8, true);
  add(16, false);
  add(2, true);
  add(1, false);

  struct Case {
    const std::vector<float>* targets;
    const std::vector<float>* sources;
    const std::vector<float>* masses;
    std::size_t ns;
  };
  std::vector<Case> cases;
  for (const std::size_t ns :
       {0, 1, 3, 4, 7, 16, 19, 20, 32, 35, 48, 52, 199})
    cases.push_back({t, src, &m, ns});
  for (std::size_t ns = 0; ns <= layered_m.size(); ++ns)
    cases.push_back({near_t, layered, &layered_m, ns});

  v6d::sweep_tiers::on_every_tier([&] {
    for (const auto& params : {plain, split}) {
      const CutoffPoly poly(
          params.rs > 0.0 ? params.rcut / (2.0 * params.rs) : 3.0, 14);
      for (const Case& c : cases) {
        const std::size_t nt = c.targets[0].size();
        std::vector<float> got[3], want[3];
        for (int k = 0; k < 3; ++k) {
          got[k].assign(nt, 0.25f);
          want[k] = got[k];
        }
        pp_accumulate_simd(c.targets[0].data(), c.targets[1].data(),
                           c.targets[2].data(), nt, c.sources[0].data(),
                           c.sources[1].data(), c.sources[2].data(),
                           c.masses->data(), c.ns, params, poly,
                           got[0].data(), got[1].data(), got[2].data());
        v6d::pp_reference::four_lane_sum(c.targets, c.sources, *c.masses,
                                         c.ns, params, poly, want);
        for (int k = 0; k < 3; ++k)
          for (std::size_t i = 0; i < nt; ++i)
            EXPECT_EQ(std::memcmp(&got[k][i], &want[k][i], sizeof(float)), 0)
                << "axis " << k << " target " << i << " of " << nt
                << " sources " << c.ns << " rs " << params.rs << ": "
                << got[k][i] << " vs " << want[k][i];
      }
    }
  });
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
