#include "fft/fft1d.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace v6d::fft {

namespace {

// The radices of n from {7, 5, 3, 2}, largest first: radices[0] splits
// the whole line, the last radix combines single points.  False if
// another prime divides n.
bool factorize(int n, std::vector<int>& radices) {
  radices.clear();
  for (int r : {7, 5, 3, 2}) {
    while (n % r == 0) {
      radices.push_back(r);
      n /= r;
    }
  }
  return n == 1;
}

int next_pow2(int n) {
  // Widen before doubling: for n just above 2^30 the signed `p *= 2`
  // would overflow (undefined behaviour) one step before the loop exits.
  long long p = 1;
  while (p < n) p *= 2;
  if (p > (1LL << 30))
    throw std::invalid_argument("FftPlan: Bluestein length " +
                                std::to_string(n) + " out of range");
  return static_cast<int>(p);
}

/// Split re/im table entries of one transform direction.
struct Table {
  std::vector<double> re, im;

  explicit Table(std::size_t size) : re(size), im(size) {}
  void set(std::size_t i, cplx v) {
    re[i] = v.real();
    im[i] = v.imag();
  }
};

/// One decimation-in-time level: combines `radix` interleaved
/// sub-transforms of length m into blocks of len = radix * m.  Index 0 of
/// each table pair is the forward direction, index 1 the inverse.
struct Stage {
  int radix, m;
  std::vector<Table> twiddle;  // [k * radix + q] = W_len^{qk}
  std::vector<Table> dft;      // [q * radix + p] = W_radix^{qp}
};

/// Lanes of the split layout: element j of lane l sits at [j * B + l].
constexpr int B = FftPlan::kBatch;

/// One stage over the B lanes.  Per block and k: t_q = y[q m + k]
/// W_len^{qk}, then X[p m + k] = (0, 0) + sum_q t_q W_r^{qp}, written over
/// the r points it read.
template <int R>
void radix_stage(const Stage& st, bool inverse, int n, double* re,
                 double* im) {
  const int m = st.m;
  const int len = R * m;
  const Table& tw = st.twiddle[inverse ? 1 : 0];
  const Table& dft = st.dft[inverse ? 1 : 0];
  for (int base = 0; base < n; base += len)
    for (int k = 0; k < m; ++k) {
      double tr[R][B] = {}, ti[R][B] = {};
      for (int q = 0; q < R; ++q) {
        const double wr = tw.re[k * R + q], wi = tw.im[k * R + q];
        const std::ptrdiff_t y =
            static_cast<std::ptrdiff_t>(base + q * m + k) * B;
        for (int l = 0; l < B; ++l) {
          tr[q][l] = re[y + l] * wr - im[y + l] * wi;
          ti[q][l] = re[y + l] * wi + im[y + l] * wr;
        }
      }
      for (int p = 0; p < R; ++p) {
        double ar[B] = {}, ai[B] = {};
        for (int q = 0; q < R; ++q) {
          const double cr = dft.re[q * R + p], ci = dft.im[q * R + p];
          for (int l = 0; l < B; ++l) {
            ar[l] += tr[q][l] * cr - ti[q][l] * ci;
            ai[l] += tr[q][l] * ci + ti[q][l] * cr;
          }
        }
        const std::ptrdiff_t x =
            static_cast<std::ptrdiff_t>(base + p * m + k) * B;
        for (int l = 0; l < B; ++l) {
          re[x + l] = ar[l];
          im[x + l] = ai[l];
        }
      }
    }
}

/// y = x w on every lane, with std::complex's products and sums in its
/// order; y may be x.
void times(const double* xr, const double* xi, cplx w, double* yr,
           double* yi) {
  const double wr = w.real(), wi = w.imag();
  for (int l = 0; l < B; ++l) {
    const double r = xr[l], i = xi[l];
    yr[l] = r * wr - i * wi;
    yi[l] = r * wi + i * wr;
  }
}

}  // namespace

struct FftPlan::Impl {
  int n = 0;
  // Mixed radix (also n == 1, with no stages).
  std::vector<int> perm;      // leaf pos holds input element perm[pos]
  std::vector<Stage> stages;  // innermost (m == 1) first
  // Bluestein (n > 1 with a prime factor above 7).
  std::unique_ptr<FftPlan> conv;  // power-of-two convolution length
  std::vector<cplx> chirp;        // c_j = e^{+pi i j^2 / n}
  std::vector<cplx> kernel[2];    // FFT of the zero-padded conv kernel:
                                  // chirp (forward), conj(chirp) (inverse)

  void build_mixed_radix(const std::vector<int>& radices);
  void build_bluestein();

  void run_stages(double* re, double* im, bool inverse) const;
  void mixed_radix_lines(cplx* first, int count, std::ptrdiff_t line_stride,
                         std::ptrdiff_t stride, bool inverse,
                         double* scratch) const;
  void bluestein_lines(cplx* first, int count, std::ptrdiff_t line_stride,
                       std::ptrdiff_t stride, bool inverse,
                       double* scratch) const;
  void lines(cplx* first, int count, std::ptrdiff_t line_stride,
             std::ptrdiff_t stride, bool inverse, double* scratch) const {
    if (conv)
      bluestein_lines(first, count, line_stride, stride, inverse, scratch);
    else
      mixed_radix_lines(first, count, line_stride, stride, inverse, scratch);
  }
};

void FftPlan::Impl::build_mixed_radix(const std::vector<int>& radices) {
  std::vector<cplx> twiddle(n);  // e^{-2 pi i j / n}, j = 0..n-1
  for (int j = 0; j < n; ++j) {
    const double ang = -2.0 * M_PI * j / n;
    twiddle[j] = cplx(std::cos(ang), std::sin(ang));
  }
  // e^{-+2 pi i num/den} via the table (den divides n).
  auto w = [&](long long num, int den, bool inverse) {
    long long idx = (num % den) * (n / den);
    idx %= n;
    const cplx t = twiddle[static_cast<std::size_t>(idx)];
    return inverse ? std::conj(t) : t;
  };
  // Leaf order, built from the innermost level out: at the level of radix
  // r over sub-transforms of length m, output point q m + o of the level
  // reads input q + r perm_sub[o].
  perm.assign(1, 0);
  int m = 1;
  for (auto it = radices.rbegin(); it != radices.rend(); ++it) {
    const int r = *it;
    const int len = r * m;
    std::vector<int> next(static_cast<std::size_t>(len));
    for (int q = 0; q < r; ++q)
      for (int o = 0; o < m; ++o)
        next[static_cast<std::size_t>(q * m + o)] =
            q + r * perm[static_cast<std::size_t>(o)];
    perm = std::move(next);

    Stage st{r, m, {}, {}};
    for (const bool inverse : {false, true}) {
      Table tw(static_cast<std::size_t>(len));
      for (int k = 0; k < m; ++k)
        for (int q = 0; q < r; ++q)
          tw.set(static_cast<std::size_t>(k * r + q),
                 w(static_cast<long long>(q) * k, len, inverse));
      Table dft(static_cast<std::size_t>(r * r));
      for (int q = 0; q < r; ++q)
        for (int p = 0; p < r; ++p)
          dft.set(static_cast<std::size_t>(q * r + p),
                  w(static_cast<long long>(q) * p, r, inverse));
      st.twiddle.push_back(std::move(tw));
      st.dft.push_back(std::move(dft));
    }
    stages.push_back(std::move(st));
    m = len;
  }
}

void FftPlan::Impl::build_bluestein() {
  // x_k convolved with the chirp; convolution length >= 2n-1, rounded to
  // a power of two so the inner plan is mixed-radix.
  const int m = next_pow2(2 * n - 1);
  conv = std::make_unique<FftPlan>(m);
  chirp.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    // j^2 mod 2n keeps the argument small for large j.
    const long long j2 = (static_cast<long long>(j) * j) % (2LL * n);
    const double ang = M_PI * static_cast<double>(j2) / n;
    chirp[j] = cplx(std::cos(ang), std::sin(ang));  // e^{+i pi j^2 / n}
  }
  Scratch scratch;
  for (const bool inverse : {false, true}) {
    std::vector<cplx> b(static_cast<std::size_t>(m), cplx(0.0, 0.0));
    b[0] = inverse ? std::conj(chirp[0]) : chirp[0];
    for (int j = 1; j < n; ++j)
      b[j] = b[m - j] = inverse ? std::conj(chirp[j]) : chirp[j];
    conv->forward(b.data(), scratch);
    kernel[inverse ? 1 : 0] = std::move(b);
  }
}

void FftPlan::Impl::run_stages(double* re, double* im, bool inverse) const {
  for (const Stage& st : stages) {
    switch (st.radix) {
      case 2:
        radix_stage<2>(st, inverse, n, re, im);
        break;
      case 3:
        radix_stage<3>(st, inverse, n, re, im);
        break;
      case 5:
        radix_stage<5>(st, inverse, n, re, im);
        break;
      default:
        radix_stage<7>(st, inverse, n, re, im);
        break;
    }
  }
}

void FftPlan::Impl::mixed_radix_lines(cplx* first, int count,
                                      std::ptrdiff_t line_stride,
                                      std::ptrdiff_t stride, bool inverse,
                                      double* scratch) const {
  double* re = scratch;
  double* im = scratch + static_cast<std::ptrdiff_t>(n) * B;
  for (int pos = 0; pos < n; ++pos) {
    const cplx* src = first + perm[static_cast<std::size_t>(pos)] * stride;
    double* r = re + static_cast<std::ptrdiff_t>(pos) * B;
    double* i = im + static_cast<std::ptrdiff_t>(pos) * B;
    for (int l = 0; l < count; ++l) {
      r[l] = src[l * line_stride].real();
      i[l] = src[l * line_stride].imag();
    }
    for (int l = count; l < B; ++l) r[l] = i[l] = 0.0;
  }
  run_stages(re, im, inverse);
  for (int j = 0; j < n; ++j) {
    cplx* dst = first + j * stride;
    const std::ptrdiff_t x = static_cast<std::ptrdiff_t>(j) * B;
    for (int l = 0; l < count; ++l)
      dst[l * line_stride] = cplx(re[x + l], im[x + l]);
  }
}

void FftPlan::Impl::bluestein_lines(cplx* first, int count,
                                    std::ptrdiff_t line_stride,
                                    std::ptrdiff_t stride, bool inverse,
                                    double* scratch) const {
  // X_k = conj(c_k) * sum_j (x_j conj(c_j)) c_{k-j} (forward; the inverse
  // swaps c and conj(c)).  The sum is a circular convolution of length m,
  // evaluated by the conv plan's stages in two split buffers a and b.
  const Impl& cv = *conv->impl_;
  const int m = cv.n;
  const std::ptrdiff_t mb = static_cast<std::ptrdiff_t>(m) * B;
  double* ar = scratch;
  double* ai = ar + mb;
  double* br = ai + mb;
  double* bi = br + mb;
  auto c = [&](int j) {
    return inverse ? chirp[static_cast<std::size_t>(j)]
                   : std::conj(chirp[static_cast<std::size_t>(j)]);
  };
  // Every product runs on all B lanes in split re/im, like the stages: a
  // loop that stopped at `count`, or a std::complex product per lane, may
  // be compiled (and contracted into FMAs) differently from lane to lane,
  // and a line's bits would then depend on its place in the batch.
  // a_j = x_j c_j, zero-padded to m, in the conv plan's leaf order.
  for (int pos = 0; pos < m; ++pos) {
    const int j = cv.perm[static_cast<std::size_t>(pos)];
    double* r = ar + static_cast<std::ptrdiff_t>(pos) * B;
    double* i = ai + static_cast<std::ptrdiff_t>(pos) * B;
    int l = 0;
    if (j < n) {
      const cplx* src = first + j * stride;
      for (; l < count; ++l) {
        r[l] = src[l * line_stride].real();
        i[l] = src[l * line_stride].imag();
      }
    }
    for (; l < B; ++l) r[l] = i[l] = 0.0;
    if (j < n) times(r, i, c(j), r, i);
  }
  cv.run_stages(ar, ai, false);
  // Times the kernel's spectrum, gathered into leaf order for the inverse.
  const std::vector<cplx>& kern = kernel[inverse ? 1 : 0];
  for (int pos = 0; pos < m; ++pos) {
    const int i = cv.perm[static_cast<std::size_t>(pos)];
    const std::ptrdiff_t from = static_cast<std::ptrdiff_t>(i) * B;
    const std::ptrdiff_t to = static_cast<std::ptrdiff_t>(pos) * B;
    times(ar + from, ai + from, kern[static_cast<std::size_t>(i)], br + to,
          bi + to);
  }
  cv.run_stages(br, bi, true);
  const double scale = 1.0 / m;
  for (int k = 0; k < n; ++k) {
    double* r = br + static_cast<std::ptrdiff_t>(k) * B;
    double* i = bi + static_cast<std::ptrdiff_t>(k) * B;
    for (int l = 0; l < B; ++l) {
      r[l] *= scale;
      i[l] *= scale;
    }
    times(r, i, c(k), r, i);
    cplx* dst = first + k * stride;
    for (int l = 0; l < count; ++l) dst[l * line_stride] = cplx(r[l], i[l]);
  }
}

FftPlan::FftPlan(int n) : n_(n), impl_(std::make_unique<Impl>()) {
  if (n < 1)
    throw std::invalid_argument("FftPlan: length " + std::to_string(n) +
                                " is not positive");
  impl_->n = n;
  std::vector<int> radices;
  if (factorize(n, radices))
    impl_->build_mixed_radix(radices);
  else
    impl_->build_bluestein();
}

FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan&&) noexcept = default;
FftPlan& FftPlan::operator=(FftPlan&&) noexcept = default;

double* FftPlan::grown(Scratch& scratch) const {
  // Split re/im lanes: one line buffer, or Bluestein's two of the
  // convolution length.
  const int points = impl_->conv ? 2 * impl_->conv->size() : n_;
  const std::size_t size = 2 * static_cast<std::size_t>(points) * kBatch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

void FftPlan::transform_lines(cplx* first, int count,
                              std::ptrdiff_t line_stride,
                              std::ptrdiff_t stride, bool inverse,
                              Scratch& scratch) const {
  if (count < 1 || count > kBatch)
    throw std::invalid_argument("FftPlan::transform_lines: " +
                                std::to_string(count) + " lines");
  impl_->lines(first, count, line_stride, stride, inverse, grown(scratch));
}

void FftPlan::forward(cplx* x, Scratch& scratch) const {
  impl_->lines(x, 1, 0, 1, false, grown(scratch));
}

void FftPlan::inverse(cplx* x, Scratch& scratch) const {
  impl_->lines(x, 1, 0, 1, true, grown(scratch));
}

void FftPlan::inverse_normalized(cplx* x, Scratch& scratch) const {
  inverse(x, scratch);
  const double scale = 1.0 / n_;
  for (int i = 0; i < n_; ++i) x[i] *= scale;
}

}  // namespace v6d::fft
