// 1-D complex FFT plans.  Lengths whose factors are {2, 3, 5, 7} run an
// iterative mixed-radix Cooley-Tukey transform (decimation in time); any
// other length runs Bluestein's chirp-z convolution over a power-of-two
// plan.  Substrate for the PM Poisson solver; plays the role the Fujitsu
// SSL II library plays in the paper.
//
// A plan precomputes its leaf permutation and per-stage twiddle tables
// (and, for Bluestein, both convolution kernels).  Calls work in
// caller-owned scratch and allocate nothing once it has grown to the
// plan's need; one plan serves any number of threads, each with its own
// scratch.  transform_lines() runs up to kBatch lines at once: lanes
// run across lines in split re/im scratch, so every per-lane loop
// vectorizes.  Each stage repeats, per lane, the operations of the
// recursive transform this plan replaced (tests/test_fft.cpp keeps it as
// the oracle): t_q = y[q m + k] W_len^{qk}, then sum_q t_q W_r^{qp}
// accumulated from (0, 0), with every twiddle read from the same table
// entry.  The results are therefore bit-identical to it wherever the
// compiler does not contract a product into an FMA.
//
// Conventions: forward uses exp(-2*pi*i*jk/n), inverse uses exp(+2*pi*i*jk/n)
// and is unnormalized; inverse_normalized() divides by n so that
// inverse_normalized(forward(x)) == x.  Bin i holds mode signed_mode(i, n).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace v6d::fft {

using cplx = std::complex<double>;

/// Signed mode number of bin i of an n-point transform: i up to the
/// Nyquist bin n / 2, i - n above it.
inline int signed_mode(int i, int n) { return i <= n / 2 ? i : i - n; }

class FftPlan {
 public:
  /// Lines one transform_lines() call carries, one per lane.
  static constexpr int kBatch = 4;
  /// Caller-owned working memory; a call grows it to what the plan needs.
  using Scratch = std::vector<double>;

  /// Throws std::invalid_argument for n < 1.
  explicit FftPlan(int n);
  ~FftPlan();
  FftPlan(FftPlan&&) noexcept;
  FftPlan& operator=(FftPlan&&) noexcept;

  int size() const { return n_; }

  /// In-place transform of `count` (1..kBatch) lines of size() elements:
  /// element j of line l is first[l * line_stride + j * stride].  The
  /// inverse is unnormalized.  Always runs kBatch lanes (those past
  /// `count` carry zeros) through the same operations, so a line's result
  /// depends neither on how many lines share its call nor on its lane.
  /// Throws std::invalid_argument for a `count` outside 1..kBatch.
  void transform_lines(cplx* first, int count, std::ptrdiff_t line_stride,
                       std::ptrdiff_t stride, bool inverse,
                       Scratch& scratch) const;

  /// In-place transforms of one contiguous line of size() elements:
  /// transform_lines() with a count of 1.
  void forward(cplx* x, Scratch& scratch) const;
  void inverse(cplx* x, Scratch& scratch) const;
  void inverse_normalized(cplx* x, Scratch& scratch) const;

 private:
  /// `scratch`'s storage, grown to what any call of this plan needs.
  double* grown(Scratch& scratch) const;

  struct Impl;
  int n_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace v6d::fft
