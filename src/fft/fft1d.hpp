// 1-D complex FFT: recursive mixed-radix Cooley-Tukey (decimation in
// time) for lengths whose factors are {2, 3, 5, 7}, with a Bluestein
// (chirp-z) fallback for any other length.  Substrate for the PM Poisson
// solver; plays the role the Fujitsu SSL II library plays in the paper.
//
// Conventions: forward uses exp(-2*pi*i*jk/n), inverse uses exp(+2*pi*i*jk/n)
// and is unnormalized; inverse_normalized() divides by n so that
// inverse_normalized(forward(x)) == x.  Bin i holds mode signed_mode(i, n).
#pragma once

#include <complex>
#include <memory>

namespace v6d::fft {

using cplx = std::complex<double>;

/// Signed mode number of bin i of an n-point transform: i up to the
/// Nyquist bin n / 2, i - n above it.
inline int signed_mode(int i, int n) { return i <= n / 2 ? i : i - n; }

class FftPlan {
 public:
  explicit FftPlan(int n);
  ~FftPlan();
  FftPlan(FftPlan&&) noexcept;
  FftPlan& operator=(FftPlan&&) noexcept;

  int size() const { return n_; }

  /// In-place transforms on a contiguous array of size() elements.
  /// Thread-safe: per-call scratch.
  void forward(cplx* x) const;
  void inverse(cplx* x) const;
  void inverse_normalized(cplx* x) const;

 private:
  struct Impl;
  int n_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace v6d::fft
