#include "cosmology/gaussian_field.hpp"

#include <cmath>
#include <complex>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft3d.hpp"

namespace v6d::cosmo {

namespace {

inline int wrap_mode(int m, int n) { return ((m % n) + n) % n; }

/// True if FFT bin triple is its own complex conjugate (all components are
/// 0 or Nyquist).
inline bool self_conjugate(int i, int j, int k, int n) {
  auto sc = [n](int m) { return m == 0 || (n % 2 == 0 && m == n / 2); };
  return sc(i) && sc(j) && sc(k);
}

}  // namespace

GaussianField::GaussianField(int n, double box, std::uint64_t seed)
    : n_(n), box_(box), seed_(seed) {}

void GaussianField::fill_modes(const std::function<double(double)>& pk,
                               std::vector<std::complex<double>>& modes) const {
  const int n = n_;
  const double volume = box_ * box_ * box_;
  const double two_pi_over_l = 2.0 * M_PI / box_;
  const double n3 = static_cast<double>(n) * n * n;
  modes.assign(static_cast<std::size_t>(n) * n * n, {0.0, 0.0});

  auto index = [n](int i, int j, int k) {
    return (static_cast<std::size_t>(i) * n + j) * n + k;
  };

  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        // Canonical representative of the conjugate pair: the
        // lexicographically smaller of (i,j,k) and its conjugate.
        const int ci = wrap_mode(-fft::signed_mode(i, n), n);
        const int cj = wrap_mode(-fft::signed_mode(j, n), n);
        const int ck = wrap_mode(-fft::signed_mode(k, n), n);
        const bool canonical =
            std::tie(i, j, k) <= std::tie(ci, cj, ck);
        if (!canonical) continue;

        const double kx = two_pi_over_l * fft::signed_mode(i, n);
        const double ky = two_pi_over_l * fft::signed_mode(j, n);
        const double kz = two_pi_over_l * fft::signed_mode(k, n);
        const double kk = std::sqrt(kx * kx + ky * ky + kz * kz);
        if (kk == 0.0) continue;  // mean mode zero

        // Per-mode deterministic stream.
        const std::uint64_t h = hash_mix(
            seed_ ^ hash_mix((static_cast<std::uint64_t>(i) << 42) ^
                             (static_cast<std::uint64_t>(j) << 21) ^
                             static_cast<std::uint64_t>(k)));
        Xoshiro256 rng(h);
        // FFT convention: delta(x) = (1/N^3) sum delta_k e^{ikx} after
        // inverse_normalized, so scale amplitudes by N^3.
        const double sigma = std::sqrt(pk(kk) / volume) * n3;
        if (self_conjugate(i, j, k, n)) {
          modes[index(i, j, k)] = {sigma * rng.next_normal(), 0.0};
        } else {
          const double re = sigma * M_SQRT1_2 * rng.next_normal();
          const double im = sigma * M_SQRT1_2 * rng.next_normal();
          modes[index(i, j, k)] = {re, im};
          modes[index(ci, cj, ck)] = {re, -im};
        }
      }
}

void GaussianField::realize(const std::function<double(double)>& pk,
                            mesh::Grid3D<double>& delta) const {
  std::vector<std::complex<double>> modes;
  fill_modes(pk, modes);
  fft::Fft3D fft(n_, n_, n_);
  fft.inverse_normalized(modes.data());
  std::size_t o = 0;
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j)
      for (int k = 0; k < n_; ++k) delta.at(i, j, k) = modes[o++].real();
}

void GaussianField::realize_with_displacement(
    const std::function<double(double)>& pk, mesh::Grid3D<double>& delta,
    mesh::Grid3D<double>& psix, mesh::Grid3D<double>& psiy,
    mesh::Grid3D<double>& psiz) const {
  std::vector<std::complex<double>> modes;
  fill_modes(pk, modes);

  const int n = n_;
  const double two_pi_over_l = 2.0 * M_PI / box_;
  std::vector<std::complex<double>> mx(modes.size()), my(modes.size()),
      mz(modes.size());
  std::size_t o = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k, ++o) {
        const double kx = two_pi_over_l * fft::signed_mode(i, n);
        const double ky = two_pi_over_l * fft::signed_mode(j, n);
        const double kz = two_pi_over_l * fft::signed_mode(k, n);
        const double k2 = kx * kx + ky * ky + kz * kz;
        if (k2 == 0.0) continue;
        const std::complex<double> ik_over_k2(0.0, 1.0 / k2);
        mx[o] = ik_over_k2 * kx * modes[o];
        my[o] = ik_over_k2 * ky * modes[o];
        mz[o] = ik_over_k2 * kz * modes[o];
      }

  fft::Fft3D fft(n, n, n);
  auto unpack = [&](std::vector<std::complex<double>>& m,
                    mesh::Grid3D<double>& g) {
    fft.inverse_normalized(m.data());
    std::size_t q = 0;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        for (int k = 0; k < n; ++k) g.at(i, j, k) = m[q++].real();
  };
  unpack(modes, delta);
  unpack(mx, psix);
  unpack(my, psiy);
  unpack(mz, psiz);
}

}  // namespace v6d::cosmo
