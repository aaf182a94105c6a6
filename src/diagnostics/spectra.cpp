#include "diagnostics/spectra.hpp"

#include <cmath>
#include <complex>

#include "fft/fft3d.hpp"

namespace v6d::diag {

namespace {

std::vector<fft::cplx> delta_spectrum(const mesh::Grid3D<double>& rho) {
  const int n = rho.nx();
  const double mean = rho.sum_interior() / rho.interior_size();
  std::vector<fft::cplx> spec(rho.interior_size());
  std::size_t o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k)
        spec[o++] = fft::cplx(
            mean > 0.0 ? rho.at(i, j, k) / mean - 1.0 : rho.at(i, j, k), 0.0);
  fft::Fft3D fft(n, n, n);
  fft.forward(spec.data());
  return spec;
}

}  // namespace

std::vector<SpectrumBin> measure_power(const mesh::Grid3D<double>& rho,
                                       double box) {
  const int n = rho.nx();
  const auto spec = delta_spectrum(rho);
  const double kf = 2.0 * M_PI / box;
  const double volume = box * box * box;
  const double n3 = static_cast<double>(n) * n * n;
  // delta_k from the unnormalized FFT carries a factor N^3; the discrete
  // estimator is P(k) = V |delta_k / N^3|^2.
  const double norm = volume / (n3 * n3);

  const int nbins = n / 2;
  std::vector<SpectrumBin> bins(static_cast<std::size_t>(nbins));
  std::vector<double> ksum(static_cast<std::size_t>(nbins), 0.0);
  std::size_t o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++o) {
        const int mi = fft::signed_mode(i, n), mj = fft::signed_mode(j, n),
                  mk = fft::signed_mode(k, n);
        const double km = kf * std::sqrt(static_cast<double>(mi) * mi +
                                         static_cast<double>(mj) * mj +
                                         static_cast<double>(mk) * mk);
        if (km == 0.0) continue;
        const int bin = static_cast<int>(km / kf - 0.5);
        if (bin < 0 || bin >= nbins) continue;
        const double p = std::norm(spec[o]) * norm;
        bins[static_cast<std::size_t>(bin)].power += p;
        bins[static_cast<std::size_t>(bin)].modes += 1;
        ksum[static_cast<std::size_t>(bin)] += km;
      }
  for (int b = 0; b < nbins; ++b) {
    auto& bin = bins[static_cast<std::size_t>(b)];
    if (bin.modes > 0) {
      bin.power /= static_cast<double>(bin.modes);
      bin.k = ksum[static_cast<std::size_t>(b)] / static_cast<double>(bin.modes);
    } else {
      bin.k = kf * (b + 1);
    }
  }
  return bins;
}

std::vector<double> cross_correlation(const mesh::Grid3D<double>& a,
                                      const mesh::Grid3D<double>& b,
                                      double box,
                                      std::vector<SpectrumBin>* bins_out) {
  const int n = a.nx();
  const auto sa = delta_spectrum(a);
  const auto sb = delta_spectrum(b);
  const double kf = 2.0 * M_PI / box;
  const int nbins = n / 2;
  std::vector<double> pab(static_cast<std::size_t>(nbins), 0.0),
      paa(static_cast<std::size_t>(nbins), 0.0),
      pbb(static_cast<std::size_t>(nbins), 0.0);
  std::vector<SpectrumBin> bins(static_cast<std::size_t>(nbins));

  std::size_t o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++o) {
        const int mi = fft::signed_mode(i, n), mj = fft::signed_mode(j, n),
                  mk = fft::signed_mode(k, n);
        const double km = kf * std::sqrt(static_cast<double>(mi) * mi +
                                         static_cast<double>(mj) * mj +
                                         static_cast<double>(mk) * mk);
        if (km == 0.0) continue;
        const int bin = static_cast<int>(km / kf - 0.5);
        if (bin < 0 || bin >= nbins) continue;
        const auto ib = static_cast<std::size_t>(bin);
        pab[ib] += (sa[o] * std::conj(sb[o])).real();
        paa[ib] += std::norm(sa[o]);
        pbb[ib] += std::norm(sb[o]);
        bins[ib].modes += 1;
        bins[ib].k += km;
      }
  std::vector<double> r(static_cast<std::size_t>(nbins), 0.0);
  for (int bidx = 0; bidx < nbins; ++bidx) {
    const auto ib = static_cast<std::size_t>(bidx);
    if (bins[ib].modes > 0) {
      bins[ib].k /= static_cast<double>(bins[ib].modes);
      const double denom = std::sqrt(paa[ib] * pbb[ib]);
      r[ib] = denom > 0.0 ? pab[ib] / denom : 0.0;
    }
  }
  if (bins_out) *bins_out = bins;
  return r;
}

}  // namespace v6d::diag
