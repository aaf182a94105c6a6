// 1-D complex FFT: iterative mixed-radix Cooley-Tukey for lengths whose
// factors are {2, 3, 5, 7}, with a Bluestein (chirp-z) fallback for any
// other length.  Substrate for the PM Poisson solver; plays the role the
// Fujitsu SSL II library plays in the paper.
//
// Conventions: forward uses exp(-2*pi*i*jk/n), inverse uses exp(+2*pi*i*jk/n)
// and is unnormalized; inverse_normalized() divides by n so that
// inverse_normalized(forward(x)) == x.
#pragma once

#include <complex>
#include <memory>
#include <vector>

namespace v6d::fft {

using cplx = std::complex<double>;

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

/// Reference O(n^2) DFT used by tests.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse);

}  // namespace v6d::fft
