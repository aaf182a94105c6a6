#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"

namespace {

using namespace v6d::fft;

std::vector<cplx> random_signal(int n, unsigned seed) {
  std::vector<cplx> x(static_cast<std::size_t>(n));
  unsigned state = seed;
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state) / 4294967296.0 - 0.5;
  };
  for (auto& v : x) v = cplx(next(), next());
  return x;
}

// Reference O(n^2) DFT: the oracle the fast transforms are checked
// against.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse) {
  const int n = static_cast<int>(x.size());
  std::vector<cplx> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (int k = 0; k < n; ++k) {
    cplx acc(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI * j * k / n;
      acc += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

class Fft1dSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dSizes, MatchesReferenceDft) {
  const int n = GetParam();
  auto x = random_signal(n, 42);
  const auto ref = dft_reference(x, false);
  FftPlan plan(n);
  auto y = x;
  plan.forward(y.data());
  double scale = 0.0;
  for (const auto& v : ref) scale = std::max(scale, std::abs(v));
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)] -
                         ref[static_cast<std::size_t>(i)]),
                0.0, 1e-10 * std::max(1.0, scale))
        << "n=" << n << " bin " << i;
}

TEST_P(Fft1dSizes, RoundTripIsIdentity) {
  const int n = GetParam();
  auto x = random_signal(n, 7);
  auto y = x;
  FftPlan plan(n);
  plan.forward(y.data());
  plan.inverse_normalized(y.data());
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)] -
                         x[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
}

TEST_P(Fft1dSizes, ParsevalHolds) {
  const int n = GetParam();
  auto x = random_signal(n, 11);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  FftPlan plan(n);
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * std::max(1.0, time_energy));
}

// Mixed-radix sizes (2^a 3^b 5^c 7^d), primes (Bluestein), and awkward
// composites.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           15, 16, 20, 24, 27, 30, 32, 35,
                                           48, 49, 60, 64, 11, 13, 17, 31,
                                           97, 101, 22, 26, 33, 39, 55, 91));

TEST(Fft1d, DeltaFunctionHasFlatSpectrum) {
  const int n = 32;
  std::vector<cplx> x(n, cplx(0.0, 0.0));
  x[0] = cplx(1.0, 0.0);
  FftPlan plan(n);
  plan.forward(x.data());
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft1d, SingleModeLandsInRightBin) {
  const int n = 24, mode = 5;
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double ang = 2.0 * M_PI * mode * i / n;
    x[static_cast<std::size_t>(i)] = cplx(std::cos(ang), std::sin(ang));
  }
  FftPlan plan(n);
  plan.forward(x.data());
  for (int k = 0; k < n; ++k) {
    const double expected = k == mode ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(k)]), expected, 1e-10)
        << "bin " << k;
  }
}

TEST(Fft3d, RoundTripAndSingleMode) {
  const int n = 12;
  Fft3D fft(n, n, n);
  std::vector<cplx> x(fft.size());
  // Plane wave along a mixed direction.
  const int mx = 2, my = 3, mz = 1;
  std::size_t o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++o) {
        const double ang = 2.0 * M_PI * (mx * i + my * j + mz * k) / n;
        x[o] = cplx(std::cos(ang), std::sin(ang));
      }
  auto y = x;
  fft.forward(y.data());
  o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++o) {
        const double expected =
            (i == mx && j == my && k == mz) ? static_cast<double>(n) * n * n
                                            : 0.0;
        ASSERT_NEAR(std::abs(y[o]), expected, 1e-7)
            << i << " " << j << " " << k;
      }
  fft.inverse_normalized(y.data());
  for (std::size_t q = 0; q < x.size(); ++q)
    ASSERT_NEAR(std::abs(y[q] - x[q]), 0.0, 1e-10);
}

TEST(Fft3d, AnisotropicShape) {
  Fft3D fft(4, 6, 8);
  std::vector<cplx> x(fft.size());
  unsigned state = 3;
  for (auto& v : x) {
    state = state * 1664525u + 1013904223u;
    v = cplx(state % 1000 / 1000.0, 0.0);
  }
  auto y = x;
  fft.forward(y.data());
  fft.inverse_normalized(y.data());
  for (std::size_t q = 0; q < x.size(); ++q)
    ASSERT_NEAR(std::abs(y[q] - x[q]), 0.0, 1e-11);
}

// A real field rides through Fft3D as complex values with zero imaginary
// parts (the way gravity::PoissonSolver transforms its mesh).
TEST(Fft3d, HermitianSpectrumAndRoundTrip) {
  const int n = 8;
  Fft3D fft(n, n, n);
  std::vector<double> real(fft.size());
  unsigned state = 99;
  for (auto& v : real) {
    state = state * 1664525u + 1013904223u;
    v = state % 1000 / 500.0 - 1.0;
  }
  std::vector<cplx> spec(real.begin(), real.end());
  fft.forward(spec.data());
  // Hermitian symmetry: spec(-k) == conj(spec(k)).
  auto idx = [n](int i, int j, int k) {
    return (static_cast<std::size_t>(i) * n + j) * n + k;
  };
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        const auto conj_idx =
            idx((n - i) % n, (n - j) % n, (n - k) % n);
        ASSERT_NEAR(std::abs(spec[idx(i, j, k)] - std::conj(spec[conj_idx])),
                    0.0, 1e-9);
      }
  fft.inverse_normalized(spec.data());
  for (std::size_t q = 0; q < real.size(); ++q) {
    ASSERT_NEAR(spec[q].real(), real[q], 1e-11);
    ASSERT_NEAR(spec[q].imag(), 0.0, 1e-11);
  }
}

}  // namespace
