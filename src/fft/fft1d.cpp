#include "fft/fft1d.hpp"

#include <cassert>
#include <cmath>
#include <vector>

namespace v6d::fft {

namespace {

// Factor n into radices from {2, 3, 5, 7}; returns empty if impossible.
std::vector<int> factorize(int n) {
  std::vector<int> radices;
  for (int r : {7, 5, 3, 2}) {
    while (n % r == 0) {
      radices.push_back(r);
      n /= r;
    }
  }
  if (n != 1) return {};
  return radices;
}

int next_pow2(int n) {
  // Widen before doubling: for n just above 2^30 the signed `p *= 2`
  // would overflow (undefined behaviour) one step before the loop exits.
  long long p = 1;
  while (p < n) p *= 2;
  assert(p <= (1LL << 30) && "transform length out of supported range");
  return static_cast<int>(p);
}

}  // namespace

struct FftPlan::Impl {
  std::vector<int> radices;        // empty => Bluestein
  std::vector<cplx> twiddle;       // e^{-2 pi i j / n}, j = 0..n-1
  // Bluestein machinery (only when radices is empty).
  std::unique_ptr<FftPlan> conv_plan;          // power-of-two length m
  std::vector<cplx> chirp;                     // b_j = e^{+pi i j^2 / n}
  std::vector<cplx> chirp_fft;                 // FFT of zero-padded chirp

  void build(int n);
  void run(cplx* x, int n, bool inverse) const;
  void run_mixed_radix(cplx* x, int n, bool inverse) const;
  void run_bluestein(cplx* x, int n, bool inverse) const;
};

void FftPlan::Impl::build(int n) {
  radices = factorize(n);
  twiddle.resize(n);
  for (int j = 0; j < n; ++j) {
    const double ang = -2.0 * M_PI * j / n;
    twiddle[j] = cplx(std::cos(ang), std::sin(ang));
  }
  if (radices.empty() && n > 1) {
    // Bluestein: x_k convolved with chirp; convolution length >= 2n-1,
    // rounded to a power of two so the inner plan is mixed-radix.
    const int m = next_pow2(2 * n - 1);
    conv_plan = std::make_unique<FftPlan>(m);
    chirp.resize(n);
    for (int j = 0; j < n; ++j) {
      // j^2 mod 2n keeps the argument small for large j.
      const long long j2 = (static_cast<long long>(j) * j) % (2LL * n);
      const double ang = M_PI * static_cast<double>(j2) / n;
      chirp[j] = cplx(std::cos(ang), std::sin(ang));  // e^{+i pi j^2 / n}
    }
    std::vector<cplx> b(m, cplx(0.0, 0.0));
    b[0] = chirp[0];
    for (int j = 1; j < n; ++j) b[j] = b[m - j] = chirp[j];
    conv_plan->forward(b.data());
    chirp_fft = std::move(b);
  }
}

void FftPlan::Impl::run_mixed_radix(cplx* x, int n, bool inverse) const {
  // Recursive decimation-in-time over the precomputed radix sequence.
  // At each level of size len = r * m:
  //   X[k + p*m] = sum_q W_len^{q(k + p*m)} Y_q[k]
  //              = sum_q (W_len^{qk} Y_q[k]) W_r^{qp}.
  std::vector<cplx> scratch(n);
  struct Rec {
    const std::vector<cplx>& tw;  // top-level twiddles, size N
    int N;
    bool inverse;

    cplx w(long long num, int den) const {
      // e^{-2 pi i num/den} via the top-level table (den divides N).
      long long idx = (num % den) * (N / den);
      idx %= N;
      const cplx t = tw[static_cast<std::size_t>(idx)];
      return inverse ? std::conj(t) : t;
    }

    void fft(int len, int stride, const cplx* in, cplx* out,
             const int* radix, cplx* tmp) const {
      if (len == 1) {
        out[0] = in[0];
        return;
      }
      const int r = *radix;
      const int m = len / r;
      for (int q = 0; q < r; ++q)
        fft(m, stride * r, in + static_cast<std::ptrdiff_t>(q) * stride,
            out + static_cast<std::ptrdiff_t>(q) * m, radix + 1, tmp);
      // Combine r sub-transforms; small DFT of size r per output k.
      for (int k = 0; k < m; ++k) {
        cplx t[8];  // radices <= 7
        for (int q = 0; q < r; ++q)
          t[q] = out[static_cast<std::ptrdiff_t>(q) * m + k] *
                 w(static_cast<long long>(q) * k, len);
        for (int p = 0; p < r; ++p) {
          cplx acc(0.0, 0.0);
          for (int q = 0; q < r; ++q)
            acc += t[q] * w(static_cast<long long>(q) * p, r);
          tmp[static_cast<std::ptrdiff_t>(p) * m + k] = acc;
        }
      }
      for (int i = 0; i < len; ++i) out[i] = tmp[i];
    }
  };
  Rec rec{twiddle, n, inverse};
  std::vector<cplx> out(n), tmp(n);
  rec.fft(n, 1, x, out.data(), radices.data(), tmp.data());
  for (int i = 0; i < n; ++i) x[i] = out[i];
}

void FftPlan::Impl::run_bluestein(cplx* x, int n, bool inverse) const {
  // X_k = conj(c_k) * sum_j (x_j conj(c_j)) c_{k-j}, c_j = e^{+i pi j^2/n}
  // (forward). The sum is a circular convolution evaluated by FFT.
  const int m = conv_plan->size();
  std::vector<cplx> a(m, cplx(0.0, 0.0));
  for (int j = 0; j < n; ++j) {
    const cplx c = inverse ? chirp[j] : std::conj(chirp[j]);
    a[j] = x[j] * c;
  }
  conv_plan->forward(a.data());
  if (inverse) {
    // Convolution kernel for the inverse transform is conj(chirp): its FFT
    // equals conj(FFT(chirp)) reversed.  It is rebuilt and transformed on
    // every inverse call (one length-m allocation and forward FFT each).
    std::vector<cplx> b(m, cplx(0.0, 0.0));
    b[0] = std::conj(chirp[0]);
    for (int j = 1; j < n; ++j) b[j] = b[m - j] = std::conj(chirp[j]);
    conv_plan->forward(b.data());
    for (int i = 0; i < m; ++i) a[i] *= b[i];
  } else {
    for (int i = 0; i < m; ++i) a[i] *= chirp_fft[i];
  }
  conv_plan->inverse_normalized(a.data());
  for (int k = 0; k < n; ++k) {
    const cplx c = inverse ? chirp[k] : std::conj(chirp[k]);
    x[k] = a[k] * c;
  }
}

void FftPlan::Impl::run(cplx* x, int n, bool inverse) const {
  if (n == 1) return;
  if (!radices.empty())
    run_mixed_radix(x, n, inverse);
  else
    run_bluestein(x, n, inverse);
}

FftPlan::FftPlan(int n) : n_(n), impl_(std::make_unique<Impl>()) {
  assert(n >= 1);
  impl_->build(n);
}

FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan&&) noexcept = default;
FftPlan& FftPlan::operator=(FftPlan&&) noexcept = default;

void FftPlan::forward(cplx* x) const { impl_->run(x, n_, false); }
void FftPlan::inverse(cplx* x) const { impl_->run(x, n_, true); }
void FftPlan::inverse_normalized(cplx* x) const {
  impl_->run(x, n_, true);
  const double scale = 1.0 / n_;
  for (int i = 0; i < n_; ++i) x[i] *= scale;
}

}  // namespace v6d::fft
