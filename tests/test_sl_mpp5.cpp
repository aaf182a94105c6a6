#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "vlasov/advect_vec_impl.hpp"
#include "vlasov/sl_mpp5.hpp"

namespace {

using namespace v6d::vlasov;

// Independent construction of the flux weights: Lagrange interpolation of
// the primitive function through six interfaces, evaluated numerically.
std::array<double, 5> reference_weights(double theta) {
  // Nodes t = -3..2 relative to the interface; primitive differences give
  // the cell weights (see sl_mpp5.hpp).
  const double nodes[6] = {-3, -2, -1, 0, 1, 2};
  auto lagrange = [&](int m, double x) {
    double p = 1.0;
    for (int q = 0; q < 6; ++q) {
      if (q == m) continue;
      p *= (x - nodes[q]) / (nodes[m] - nodes[q]);
    }
    return p;
  };
  const double x = -theta;
  const double l0 = lagrange(0, x), l1 = lagrange(1, x), l2 = lagrange(2, x);
  const double l4 = lagrange(4, x), l5 = lagrange(5, x);
  return {l0, l0 + l1, l0 + l1 + l2, -(l4 + l5), -l5};
}

TEST(FluxWeights, MatchesLagrangeConstruction) {
  for (double theta : {0.0, 0.1, 0.25, 0.33, 0.5, 0.75, 0.9, 1.0}) {
    const auto fw = FluxWeights::compute(theta);
    const auto ref = reference_weights(theta);
    for (int k = 0; k < 5; ++k)
      EXPECT_NEAR(fw.w[k], ref[k], 1e-14) << "theta=" << theta << " k=" << k;
  }
}

TEST(FluxWeights, PartitionOfTheta) {
  for (double theta = 0.0; theta <= 1.0; theta += 0.05) {
    const auto fw = FluxWeights::compute(theta);
    const double sum = std::accumulate(fw.w.begin(), fw.w.end(), 0.0);
    EXPECT_NEAR(sum, theta, 1e-14);
  }
}

TEST(FluxWeights, WholeCellShiftIsExact) {
  const auto fw = FluxWeights::compute(1.0);
  EXPECT_NEAR(fw.w[0], 0.0, 1e-15);
  EXPECT_NEAR(fw.w[1], 0.0, 1e-15);
  EXPECT_NEAR(fw.w[2], 1.0, 1e-15);
  EXPECT_NEAR(fw.w[3], 0.0, 1e-15);
  EXPECT_NEAR(fw.w[4], 0.0, 1e-15);
}

class AdvectLineTest : public ::testing::TestWithParam<double> {};

TEST_P(AdvectLineTest, ConstantFieldIsFixedPoint) {
  const double xi = GetParam();
  const int n = 32;
  std::vector<float> f(n, 3.25f);
  advect_line_periodic(f.data(), n, xi, Limiter::kMpp);
  for (float v : f) EXPECT_FLOAT_EQ(v, 3.25f);
}

TEST_P(AdvectLineTest, MassConserved) {
  const double xi = GetParam();
  const int n = 48;
  std::vector<float> f(n);
  for (int i = 0; i < n; ++i)
    f[i] = static_cast<float>(std::exp(-0.05 * (i - 24) * (i - 24)) +
                              0.3 * std::sin(0.5 * i) * std::sin(0.5 * i));
  double mass0 = 0.0;
  for (float v : f) mass0 += v;
  for (int s = 0; s < 25; ++s) advect_line_periodic(f.data(), n, xi, Limiter::kMpp);
  double mass1 = 0.0;
  for (float v : f) mass1 += v;
  EXPECT_NEAR(mass1, mass0, 1e-4 * std::fabs(mass0) + 1e-5);
}

TEST_P(AdvectLineTest, PositivityPreserved) {
  const double xi = GetParam();
  const int n = 40;
  std::vector<float> f(n, 0.0f);
  f[10] = 1.0f;  // extreme profile: a single spike
  f[11] = 0.5f;
  f[30] = 2.0f;
  for (int s = 0; s < 50; ++s) {
    advect_line_periodic(f.data(), n, xi, Limiter::kMpp);
    for (int i = 0; i < n; ++i)
      ASSERT_GE(f[i], 0.0f) << "step " << s << " cell " << i;
  }
}

TEST_P(AdvectLineTest, MonotoneStepProfileStaysMonotone) {
  const double xi = GetParam();
  const int n = 64;
  std::vector<float> f(n);
  for (int i = 0; i < n; ++i) f[i] = i < n / 2 ? 1.0f : 0.0f;
  // A step profile must not develop over/undershoots (MP property; the
  // adaptive-alpha bounds keep it strict for every fractional shift).
  for (int s = 0; s < 20; ++s) {
    advect_line_periodic(f.data(), n, xi, Limiter::kMpp);
    for (int i = 0; i < n; ++i) {
      ASSERT_LE(f[i], 1.0f + 1e-5) << "step " << s;
      ASSERT_GE(f[i], -1e-6) << "step " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShiftSweep, AdvectLineTest,
                         ::testing::Values(0.0, 0.1, 0.37, 0.5, 0.93, 1.0,
                                           1.4, 2.75, -0.25, -0.8, -1.0,
                                           -2.6));

TEST(AdvectLine, IntegerShiftIsExactTranslation) {
  const int n = 24;
  std::vector<float> f(n), expected(n);
  for (int i = 0; i < n; ++i) f[i] = static_cast<float>(i * i % 17);
  for (int shift : {1, 2, -1, -3, 5}) {
    std::vector<float> g = f;
    advect_line_periodic(g.data(), n, static_cast<double>(shift),
                         Limiter::kMpp);
    for (int i = 0; i < n; ++i) {
      const int src = ((i - shift) % n + n) % n;
      EXPECT_FLOAT_EQ(g[i], f[src]) << "shift=" << shift << " i=" << i;
    }
  }
}

TEST(AdvectLine, FifthOrderConvergenceOnSmoothProfile) {
  // Cell-averaged sine advected with the unlimited scheme; truncation
  // error should fall ~ n^-5 until float round-off (~1e-7) dominates.
  const double xi = 0.3;
  const int steps = 4;
  std::vector<double> errors;
  std::vector<int> ns = {8, 12, 18, 27};
  for (int n : ns) {
    std::vector<float> f(static_cast<std::size_t>(n));
    auto cell_avg = [&](int i, double shift) {
      const double a = 2.0 * M_PI * i / n - shift;
      const double b = 2.0 * M_PI * (i + 1) / n - shift;
      return 2.0 + (std::cos(a) - std::cos(b)) / (b - a);
    };
    for (int i = 0; i < n; ++i)
      f[static_cast<std::size_t>(i)] = static_cast<float>(cell_avg(i, 0.0));
    for (int s = 0; s < steps; ++s)
      advect_line_periodic(f.data(), n, xi, Limiter::kNone);
    double err = 0.0;
    const double shift = 2.0 * M_PI * xi * steps / n;
    for (int i = 0; i < n; ++i)
      err = std::max(err, std::fabs(f[static_cast<std::size_t>(i)] -
                                    cell_avg(i, shift)));
    errors.push_back(err);
  }
  // Fit the convergence order across the sweep.
  const double order =
      std::log(errors.front() / errors.back()) /
      std::log(static_cast<double>(ns.back()) / ns.front());
  EXPECT_GT(order, 4.3) << "errors: " << errors[0] << " " << errors[1] << " "
                        << errors[2] << " " << errors[3];
}

TEST(AdvectLine, LimiterDoesNotDegradeSmoothSolutions) {
  // On smooth data the MP limiter must leave the high-order flux intact
  // (accuracy-preserving at smooth extrema is the point of MP5 vs TVD).
  const int n = 32;
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = b[i] =
        static_cast<float>(2.0 + std::sin(2.0 * M_PI * (i + 0.5) / n));
  }
  for (int s = 0; s < 5; ++s) {
    advect_line_periodic(a.data(), n, 0.4, Limiter::kNone);
    advect_line_periodic(b.data(), n, 0.4, Limiter::kMpp);
  }
  for (int i = 0; i < n; ++i) EXPECT_NEAR(a[i], b[i], 2e-5) << i;
}

TEST(Mp5Limiter, ClipsOvershootCandidates) {
  // Candidate far above the local neighborhood must be pulled into range.
  const float g = mp_limit(10.0f, 1.0f, 1.0f, 1.0f, 1.2f, 1.1f);
  EXPECT_LE(g, 2.0f);
  // Candidate inside a monotone profile is accepted untouched.
  const float g2 = mp_limit(1.5f, 1.0f, 1.2f, 1.4f, 1.6f, 1.8f);
  EXPECT_FLOAT_EQ(g2, 1.5f);
}

// Batches of lanes for the vector limiter: every lane passes the
// quick-accept test on which mp_limit returns early, no lane does, both
// kinds are present, or candidates are drawn without regard to it.
enum class AcceptMix { kAll, kNone, kMixed, kRandom };

float minmod_ref(float a, float b) {
  if (a * b <= 0.0f) return 0.0f;
  return std::fabs(a) < std::fabs(b) ? a : b;
}

// One batch of L seeded random five-cell stencils and candidates; lane l
// uses alpha[l].  mp_limit_vec<L> must return mp_limit's bits in every
// lane.
template <int L>
void expect_limiter_matches_scalar(const float* alpha, AcceptMix mix,
                                   v6d::Xoshiro256& rng) {
  using P = v6d::simd::Pack<float, L>;
  float cells[5][L], g[L], alpha_third[L];
  for (int l = 0; l < L; ++l) {
    for (auto& cell : cells)
      cell[l] = static_cast<float>(0.05 + rng.next_double());
    const float fm1 = cells[1][l], f0 = cells[2][l], fp1 = cells[3][l];
    const float f_mp = f0 + minmod_ref(fp1 - f0, alpha[l] * (f0 - fm1));
    const auto accepts = [&](float x) {
      return (x - f0) * (x - f_mp) <= 1e-20f;
    };
    const float u = static_cast<float>(rng.next_double());
    bool want = false;
    switch (mix) {
      case AcceptMix::kAll: want = true; break;
      case AcceptMix::kNone: want = false; break;
      case AcceptMix::kMixed: want = l == 0 || (l > 1 && u < 0.5f); break;
      case AcceptMix::kRandom: break;
    }
    if (mix == AcceptMix::kRandom) {
      g[l] = -1.0f + 4.0f * u;
    } else if (want) {
      // Between f0 and f_mp; f0 itself when rounding lands outside.
      g[l] = f0 + (0.05f + 0.9f * u) * (f_mp - f0);
      if (!accepts(g[l])) g[l] = f0;
    } else {
      // Far outside every bound, so the limiter must move it.
      g[l] = rng.next_double() < 0.5 ? std::max(f0, f_mp) + 10.0f + 10.0f * u
                                     : std::min(f0, f_mp) - 10.0f - 10.0f * u;
    }
    if (mix != AcceptMix::kRandom) {
      ASSERT_EQ(accepts(g[l]), want);
    }
    alpha_third[l] = alpha[l] / 3.0f;
  }

  const P got = v6d::vlasov::detail::mp_limit_vec<L>(
      P::load(g), P::load(cells[0]), P::load(cells[1]), P::load(cells[2]),
      P::load(cells[3]), P::load(cells[4]), P::load(alpha),
      P::load(alpha_third));
  for (int l = 0; l < L; ++l) {
    const float want = mp_limit(g[l], cells[0][l], cells[1][l], cells[2][l],
                                cells[3][l], cells[4][l], alpha[l]);
    const float lane = got[l];
    ASSERT_EQ(std::memcmp(&want, &lane, sizeof(float)), 0)
        << "L=" << L << " lane " << l << ": scalar " << want << " vector "
        << lane << " (g " << g[l] << ", alpha " << alpha[l] << ")";
  }
}

template <int L>
void expect_limiter_lanes_match(std::uint64_t seed) {
  v6d::Xoshiro256 rng(seed);
  // Uniform alphas as the x, y and velocity sweeps use them (mp_alpha_for
  // of shifts 0.1, 0.37, 0.8 and 0.95), then per lane as in the z sweep.
  const float uniform[] = {mp_alpha_for(0.1), mp_alpha_for(0.37),
                           mp_alpha_for(0.8), mp_alpha_for(0.95)};
  std::vector<std::vector<float>> alphas;
  for (const float a : uniform) alphas.emplace_back(L, a);
  alphas.emplace_back(L);
  for (int l = 0; l < L; ++l) alphas.back()[l] = uniform[l % 4];

  for (const auto& alpha : alphas)
    for (const AcceptMix mix : {AcceptMix::kAll, AcceptMix::kNone,
                                AcceptMix::kMixed, AcceptMix::kRandom})
      for (int batch = 0; batch < 64; ++batch) {
        expect_limiter_matches_scalar<L>(alpha.data(), mix, rng);
        if (::testing::Test::HasFatalFailure()) return;
      }
}

TEST(Mp5LimiterVec, MatchesScalarLaneByLane) {
  expect_limiter_lanes_match<4>(11);
  expect_limiter_lanes_match<8>(12);
  expect_limiter_lanes_match<16>(13);
}

TEST(Rk3Mp5Baseline, AdvectsAndConserves) {
  const int n = 48;
  std::vector<float> f(n);
  for (int i = 0; i < n; ++i)
    f[i] = static_cast<float>(std::exp(-0.08 * (i - 24) * (i - 24)));
  double mass0 = 0.0;
  for (float v : f) mass0 += v;
  for (int s = 0; s < 30; ++s) advect_line_periodic_rk3_mp5(f.data(), n, 0.4);
  double mass1 = 0.0, peak = 0.0;
  for (float v : f) {
    mass1 += v;
    peak = std::max<double>(peak, v);
  }
  EXPECT_NEAR(mass1, mass0, 1e-3 * mass0);
  EXPECT_GT(peak, 0.8);  // profile not destroyed
  // Peak should now sit near cell 24 + 0.4*30 = 36.
  int argmax = 0;
  for (int i = 0; i < n; ++i)
    if (f[i] > f[argmax]) argmax = i;
  EXPECT_NEAR(argmax, 36, 1);
}

TEST(Rk3Mp5Baseline, NegativeVelocityMirrors) {
  const int n = 48;
  std::vector<float> f(n, 0.0f);
  for (int i = 20; i < 28; ++i) f[i] = 1.0f;
  for (int s = 0; s < 10; ++s) advect_line_periodic_rk3_mp5(f.data(), n, -0.5);
  int argmax = 0;
  for (int i = 0; i < n; ++i)
    if (f[i] > f[argmax]) argmax = i;
  EXPECT_NEAR(argmax, 19, 2);  // moved left by 5 cells
}

TEST(RequiredGhost, CoversStencilReach) {
  // Exact integer shifts only read c[i - s].
  EXPECT_EQ(required_ghost(0.0), 0);
  EXPECT_EQ(required_ghost(1.0), 1);
  EXPECT_EQ(required_ghost(-3.0), 3);
  // Every fractional |xi| <= 1 fits the production halo width.
  EXPECT_EQ(required_ghost(0.99), kStencilGhost);
  EXPECT_EQ(required_ghost(-0.5), kStencilGhost);
  EXPECT_EQ(required_ghost(-0.01), kStencilGhost);
  // Larger shifts widen one side: max(s+3, 2-s).
  EXPECT_EQ(required_ghost(1.5), 4);
  EXPECT_EQ(required_ghost(-1.5), 4);
  EXPECT_EQ(required_ghost(-2.5), 5);
  EXPECT_EQ(required_ghost(2.5), 5);
}

}  // namespace
