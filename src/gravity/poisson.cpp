#include "gravity/poisson.hpp"

#include <cassert>
#include <cmath>

namespace v6d::gravity {

namespace {

inline double sinc(double x) { return x == 0.0 ? 1.0 : std::sin(x) / x; }

}  // namespace

double fft_wavenumber(int i, int n, double l) {
  return 2.0 * M_PI / l * fft::signed_mode(i, n);
}

double green_times_window(int ix, int iy, int iz, int nx, int ny, int nz,
                          double lx, double ly, double lz,
                          const PoissonOptions& options) {
  if (fft::signed_mode(ix, nx) == 0 && fft::signed_mode(iy, ny) == 0 &&
      fft::signed_mode(iz, nz) == 0)
    return 0.0;

  const double kx = fft_wavenumber(ix, nx, lx);
  const double ky = fft_wavenumber(iy, ny, ly);
  const double kz = fft_wavenumber(iz, nz, lz);
  const double hx = lx / nx, hy = ly / ny, hz = lz / nz;

  double k2;
  if (options.green == GreenFunction::kExactK2) {
    k2 = kx * kx + ky * ky + kz * kz;
  } else {
    const double sx = 2.0 / hx * std::sin(0.5 * kx * hx);
    const double sy = 2.0 / hy * std::sin(0.5 * ky * hy);
    const double sz = 2.0 / hz * std::sin(0.5 * kz * hz);
    k2 = sx * sx + sy * sy + sz * sz;
  }

  double g = -options.prefactor / k2;

  if (options.deconvolve_order > 0) {
    // Assignment window W = prod sinc(k_d h_d / 2)^p with p = 2 (CIC),
    // 3 (TSC); deposit and gather each convolve once -> divide by W^2.
    const double w = sinc(0.5 * kx * hx) * sinc(0.5 * ky * hy) *
                     sinc(0.5 * kz * hz);
    const double wp = std::pow(w, options.deconvolve_order);
    g /= wp * wp;
  }
  if (options.longrange_split_rs > 0.0) {
    const double rs2 = options.longrange_split_rs * options.longrange_split_rs;
    const double kk = kx * kx + ky * ky + kz * kz;
    g *= std::exp(-kk * rs2);
  }
  return g;
}

PoissonSolver::PoissonSolver(int n, double box)
    : PoissonSolver(n, n, n, box, box, box) {}

PoissonSolver::PoissonSolver(int nx, int ny, int nz, double lx, double ly,
                             double lz)
    : nx_(nx), ny_(ny), nz_(nz), lx_(lx), ly_(ly), lz_(lz),
      fft_(nx, ny, nz) {}

void PoissonSolver::spectrum_of(const mesh::Grid3D<double>& rho) const {
  assert(rho.nx() == nx_ && rho.ny() == ny_ && rho.nz() == nz_);
  spec_.resize(fft_.size());
  std::size_t o = 0;
  for (int i = 0; i < nx_; ++i)
    for (int j = 0; j < ny_; ++j) {
      const double* row = &rho.at(i, j, 0);
      for (int k = 0; k < nz_; ++k) spec_[o++] = fft::cplx(row[k], 0.0);
    }
  fft_.forward(spec_.data());
}

void PoissonSolver::real_part_into(std::vector<fft::cplx>& spec,
                                   mesh::Grid3D<double>& out) const {
  fft_.inverse_normalized(spec.data());
  std::size_t o = 0;
  for (int i = 0; i < nx_; ++i)
    for (int j = 0; j < ny_; ++j) {
      double* row = &out.at(i, j, 0);
      for (int k = 0; k < nz_; ++k) row[k] = spec[o++].real();
    }
}

void PoissonSolver::wavevector(int ix, int iy, int iz, double& kx,
                               double& ky, double& kz) const {
  kx = fft_wavenumber(ix, nx_, lx_);
  ky = fft_wavenumber(iy, ny_, ly_);
  kz = fft_wavenumber(iz, nz_, lz_);
}

double PoissonSolver::green_times_window(
    int ix, int iy, int iz, const PoissonOptions& options) const {
  return gravity::green_times_window(ix, iy, iz, nx_, ny_, nz_, lx_, ly_,
                                     lz_, options);
}

void PoissonSolver::solve(const mesh::Grid3D<double>& rho,
                          mesh::Grid3D<double>& phi,
                          const PoissonOptions& options) const {
  spectrum_of(rho);
  std::size_t o = 0;
  for (int i = 0; i < nx_; ++i)
    for (int j = 0; j < ny_; ++j)
      for (int k = 0; k < nz_; ++k)
        spec_[o++] *= green_times_window(i, j, k, options);
  real_part_into(spec_, phi);
}

void PoissonSolver::solve_forces(const mesh::Grid3D<double>& rho,
                                 mesh::Grid3D<double>& gx,
                                 mesh::Grid3D<double>& gy,
                                 mesh::Grid3D<double>& gz,
                                 const PoissonOptions& options) const {
  spectrum_of(rho);
  cx_.resize(spec_.size());
  cy_.resize(spec_.size());
  cz_.resize(spec_.size());
  std::size_t o = 0;
  for (int i = 0; i < nx_; ++i)
    for (int j = 0; j < ny_; ++j)
      for (int k = 0; k < nz_; ++k, ++o) {
        const double g = green_times_window(i, j, k, options);
        const fft::cplx phi_k = spec_[o] * g;
        // Force = -grad(phi): multiply by -i k_d.
        double kx, ky, kz;
        wavevector(i, j, k, kx, ky, kz);
        const fft::cplx mi(0.0, -1.0);
        cx_[o] = mi * kx * phi_k;
        cy_[o] = mi * ky * phi_k;
        cz_[o] = mi * kz * phi_k;
      }
  real_part_into(cx_, gx);
  real_part_into(cy_, gy);
  real_part_into(cz_, gz);
}

}  // namespace v6d::gravity
