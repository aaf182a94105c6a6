#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"

namespace {

using namespace v6d::fft;

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  std::vector<cplx> x(n);
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

// The recursive mixed-radix plan FftPlan's iterative core replaced: the
// bit-exact oracle.  Recursive decimation in time over radices {7, 5, 3,
// 2} (largest first), twiddles looked up per use in one table of
// e^{-2 pi i j / n}; Bluestein over a power-of-two recursive plan for any
// other length.
class RecursivePlan {
 public:
  explicit RecursivePlan(int n) : n_(n) {
    int rest = n;
    for (int r : {7, 5, 3, 2})
      while (rest % r == 0) {
        radices_.push_back(r);
        rest /= r;
      }
    twiddle_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * j / n;
      twiddle_[j] = cplx(std::cos(ang), std::sin(ang));
    }
    if (rest == 1) return;
    radices_.clear();
    int m = 1;
    while (m < 2 * n - 1) m *= 2;
    conv_ = std::make_unique<RecursivePlan>(m);
    chirp_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const long long j2 = (static_cast<long long>(j) * j) % (2LL * n);
      const double ang = M_PI * static_cast<double>(j2) / n;
      chirp_[j] = cplx(std::cos(ang), std::sin(ang));
    }
    chirp_fft_.assign(static_cast<std::size_t>(m), cplx(0.0, 0.0));
    chirp_fft_[0] = chirp_[0];
    for (int j = 1; j < n; ++j) chirp_fft_[j] = chirp_fft_[m - j] = chirp_[j];
    conv_->forward(chirp_fft_.data());
  }

  void forward(cplx* x) const { run(x, false); }
  void inverse(cplx* x) const { run(x, true); }
  void inverse_normalized(cplx* x) const {
    run(x, true);
    const double scale = 1.0 / n_;
    for (int i = 0; i < n_; ++i) x[i] *= scale;
  }

 private:
  cplx w(long long num, int den, bool inverse) const {
    long long idx = (num % den) * (n_ / den);
    idx %= n_;
    const cplx t = twiddle_[static_cast<std::size_t>(idx)];
    return inverse ? std::conj(t) : t;
  }

  // At each level of size len = r * m:
  //   X[k + p*m] = sum_q (W_len^{qk} Y_q[k]) W_r^{qp}.
  void fft(int len, int stride, const cplx* in, cplx* out, const int* radix,
           cplx* tmp, bool inverse) const {
    if (len == 1) {
      out[0] = in[0];
      return;
    }
    const int r = *radix;
    const int m = len / r;
    for (int q = 0; q < r; ++q)
      fft(m, stride * r, in + static_cast<std::ptrdiff_t>(q) * stride,
          out + static_cast<std::ptrdiff_t>(q) * m, radix + 1, tmp, inverse);
    for (int k = 0; k < m; ++k) {
      cplx t[8];
      for (int q = 0; q < r; ++q)
        t[q] = out[static_cast<std::ptrdiff_t>(q) * m + k] *
               w(static_cast<long long>(q) * k, len, inverse);
      for (int p = 0; p < r; ++p) {
        cplx acc(0.0, 0.0);
        for (int q = 0; q < r; ++q)
          acc += t[q] * w(static_cast<long long>(q) * p, r, inverse);
        tmp[static_cast<std::ptrdiff_t>(p) * m + k] = acc;
      }
    }
    for (int i = 0; i < len; ++i) out[i] = tmp[i];
  }

  void run(cplx* x, bool inverse) const {
    if (n_ == 1) return;
    if (!conv_) {
      std::vector<cplx> out(n_), tmp(n_);
      fft(n_, 1, x, out.data(), radices_.data(), tmp.data(), inverse);
      for (int i = 0; i < n_; ++i) x[i] = out[i];
      return;
    }
    // X_k = conj(c_k) * sum_j (x_j conj(c_j)) c_{k-j} (forward).
    const int m = conv_->n_;
    std::vector<cplx> a(m, cplx(0.0, 0.0));
    for (int j = 0; j < n_; ++j)
      a[j] = x[j] * (inverse ? chirp_[j] : std::conj(chirp_[j]));
    conv_->forward(a.data());
    if (inverse) {
      std::vector<cplx> b(m, cplx(0.0, 0.0));
      b[0] = std::conj(chirp_[0]);
      for (int j = 1; j < n_; ++j) b[j] = b[m - j] = std::conj(chirp_[j]);
      conv_->forward(b.data());
      for (int i = 0; i < m; ++i) a[i] *= b[i];
    } else {
      for (int i = 0; i < m; ++i) a[i] *= chirp_fft_[i];
    }
    conv_->inverse_normalized(a.data());
    for (int k = 0; k < n_; ++k)
      x[k] = a[k] * (inverse ? chirp_[k] : std::conj(chirp_[k]));
  }

  int n_;
  std::vector<int> radices_;
  std::vector<cplx> twiddle_;
  std::unique_ptr<RecursivePlan> conv_;
  std::vector<cplx> chirp_, chirp_fft_;
};

// FftPlan repeats the oracle's operations, so in a build for the default
// target the bits agree.  A build for FMA hardware (-march=x86-64-v3 and
// up) differs in bits in some cases even with contraction off (the cause
// is not traced); there the values agree to 1e-12 of the largest oracle
// magnitude.
void expect_matches_oracle(const std::vector<cplx>& ref,
                           const std::vector<cplx>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
#if defined(__FMA__)
  constexpr bool kBitExact = false;
#else
  constexpr bool kBitExact = true;
#endif
  if (kBitExact) {
    std::size_t differing = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (std::memcmp(&ref[i], &got[i], sizeof(cplx)) != 0) ++differing;
    EXPECT_EQ(differing, 0u) << what << ": of " << ref.size();
    return;
  }
  double scale = 0.0;
  for (const auto& v : ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_LE(std::abs(got[i] - ref[i]), 1e-12 * scale) << what << " " << i;
}

class Fft1dSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dSizes, MatchesReferenceDft) {
  const int n = GetParam();
  auto x = random_signal(n, 42);
  const auto ref = dft_reference(x, false);
  FftPlan plan(n);
  FftPlan::Scratch scratch;
  auto y = x;
  plan.forward(y.data(), scratch);
  double scale = 0.0;
  for (const auto& v : ref) scale = std::max(scale, std::abs(v));
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)] -
                         ref[static_cast<std::size_t>(i)]),
                0.0, 1e-10 * std::max(1.0, scale))
        << "n=" << n << " bin " << i;
}

// Three inputs: a complex one, a real one with exact zeros, like the PM
// densities, and one of signed zeros only.  The results of the last two
// hold signed zeros that only the oracle's exact operation order
// reproduces.
TEST_P(Fft1dSizes, MatchesRecursiveOracle) {
  const int n = GetParam();
  auto real = random_signal(n, 13);
  std::vector<cplx> zeros(real.size());
  for (std::size_t j = 0; j < real.size(); ++j) {
    real[j] = cplx(j % 3 == 0 ? 0.0 : real[j].real(), 0.0);
    zeros[j] = j % 2 == 0 ? cplx(-0.0, 0.0) : cplx(0.0, -0.0);
  }
  const RecursivePlan oracle(n);
  const FftPlan plan(n);
  FftPlan::Scratch scratch;
  for (const auto& x : {random_signal(n, 5), real, zeros}) {
    auto ref = x, got = x;
    oracle.forward(ref.data());
    plan.forward(got.data(), scratch);
    expect_matches_oracle(ref, got, "forward");
    ref = got = x;
    oracle.inverse(ref.data());
    plan.inverse(got.data(), scratch);
    expect_matches_oracle(ref, got, "inverse");
    ref = got = x;
    oracle.inverse_normalized(ref.data());
    plan.inverse_normalized(got.data(), scratch);
    expect_matches_oracle(ref, got, "inverse_normalized");
  }
}

// A one-line call runs the batched code with the other lanes zero, so it
// gives a line the bits a full batch gives it, in every build: FMA
// contraction cannot tell the two apart.
TEST_P(Fft1dSizes, OneLineCallMatchesBatchedCall) {
  const int n = GetParam();
  constexpr int kBatch = FftPlan::kBatch;
  const FftPlan plan(n);
  FftPlan::Scratch scratch;
  const auto lines = random_signal(static_cast<std::size_t>(n) * kBatch, 17);
  for (const bool inverse : {false, true}) {
    auto batched = lines;
    plan.transform_lines(batched.data(), kBatch, n, 1, inverse, scratch);
    auto single = lines;
    for (int l = 0; l < kBatch; ++l) {
      cplx* line = single.data() + static_cast<std::ptrdiff_t>(l) * n;
      if (inverse)
        plan.inverse(line, scratch);
      else
        plan.forward(line, scratch);
    }
    EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                          batched.size() * sizeof(cplx)),
              0)
        << (inverse ? "inverse" : "forward");
  }
}

TEST_P(Fft1dSizes, RoundTripIsIdentity) {
  const int n = GetParam();
  auto x = random_signal(n, 7);
  auto y = x;
  FftPlan plan(n);
  FftPlan::Scratch scratch;
  plan.forward(y.data(), scratch);
  plan.inverse_normalized(y.data(), scratch);
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
  FftPlan::Scratch scratch;
  plan.forward(x.data(), scratch);
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

TEST(Fft1d, RejectsNonPositiveLength) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(-4), std::invalid_argument);
}

TEST(Fft1d, DeltaFunctionHasFlatSpectrum) {
  const int n = 32;
  std::vector<cplx> x(n, cplx(0.0, 0.0));
  x[0] = cplx(1.0, 0.0);
  FftPlan plan(n);
  FftPlan::Scratch scratch;
  plan.forward(x.data(), scratch);
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
  FftPlan::Scratch scratch;
  plan.forward(x.data(), scratch);
  for (int k = 0; k < n; ++k) {
    const double expected = k == mode ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(k)]), expected, 1e-10)
        << "bin " << k;
  }
}

// transform_axis against the oracle run line by line, on a complex and
// on a real field with zeros.  The shapes give rows whose line counts
// leave partial batches, an extent of 1 and a Bluestein extent (11).
class TransformAxisShapes
    : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(TransformAxisShapes, MatchesRecursiveOracleOnEveryAxis) {
  const auto shape = GetParam();
  const std::ptrdiff_t nz = shape[2];
  const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(shape[1]) * nz;
  auto check = [&](const std::vector<cplx>& field, int axis, bool inverse) {
    const int n = shape[static_cast<std::size_t>(axis)];
    const RecursivePlan oracle(n);
    const std::ptrdiff_t stride = axis == 0 ? sx : axis == 1 ? nz : 1;
    auto ref = field;
    std::vector<cplx> line(static_cast<std::size_t>(n));
    for (std::ptrdiff_t base = 0;
         base < static_cast<std::ptrdiff_t>(ref.size()); ++base) {
      // A line starts at every point whose `axis` index is 0.
      const std::ptrdiff_t index =
          axis == 0 ? base / sx : axis == 1 ? base % sx / nz : base % nz;
      if (index != 0) continue;
      for (int m = 0; m < n; ++m) line[m] = ref[base + m * stride];
      if (inverse)
        oracle.inverse(line.data());
      else
        oracle.forward(line.data());
      for (int m = 0; m < n; ++m) ref[base + m * stride] = line[m];
    }
    auto got = field;
    transform_axis(FftPlan(n), got.data(), shape, axis, inverse);
    SCOPED_TRACE(::testing::Message()
                 << shape[0] << "x" << shape[1] << "x" << shape[2] << " axis "
                 << axis << (inverse ? " inverse" : " forward"));
    expect_matches_oracle(ref, got, "transform_axis");
  };
  const auto complex_field = random_signal(
      static_cast<std::size_t>(shape[0]) * static_cast<std::size_t>(sx), 9);
  auto real_field = complex_field;
  for (std::size_t i = 0; i < real_field.size(); ++i)
    real_field[i] = cplx(i % 3 == 0 ? 0.0 : real_field[i].real(), 0.0);
  for (const auto& field : {complex_field, real_field})
    for (int axis = 0; axis < 3; ++axis)
      for (const bool inverse : {false, true}) check(field, axis, inverse);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransformAxisShapes,
    ::testing::Values(std::array<int, 3>{5, 3, 7}, std::array<int, 3>{1, 4, 2},
                      std::array<int, 3>{11, 12, 16},
                      std::array<int, 3>{16, 16, 16}));

// Batches are fixed by the shape, and a line's operations by its plan, so
// the thread count cannot change a bit.
TEST(Fft3d, ThreadCountDoesNotChangeBits) {
  const int n = 16;
  const Fft3D fft(n, n, n);
  const auto field = random_signal(fft.size(), 21);
  auto run = [&](int threads) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    auto x = field;
    fft.forward(x.data());
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return x;
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(cplx)),
            0);
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
