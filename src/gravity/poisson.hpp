// Periodic FFT Poisson solver (the PM long-range part, paper §5.1.2-5.1.3).
//
// Solves  laplacian(phi) = prefactor * (rho - <rho>)  on a periodic mesh
// by the Hockney-Eastwood convolution method: forward FFT of rho,
// multiply by a Green function, inverse FFT.  Options mirror the standard
// PM toolbox:
//  * Green function: exact continuum -1/k^2 or the discrete
//    -1/k_eff^2 (k_eff = (2/h) sin(k h / 2)) matching the second-order
//    finite-difference Laplacian;
//  * CIC deconvolution (divide by the assignment window squared);
//  * TreePM long-range filter exp(-k^2 rs^2) that removes the short-range
//    part carried by the tree.
//
// Supports anisotropic grids (nx, ny, nz over box lengths Lx, Ly, Lz);
// the solvers in src/hybrid/ use the cubic one.
#pragma once

#include "fft/rfft.hpp"
#include "mesh/grid.hpp"

namespace v6d::gravity {

enum class GreenFunction { kExactK2, kDiscreteK2 };

struct PoissonOptions {
  GreenFunction green = GreenFunction::kExactK2;
  int deconvolve_order = 0;  // 0: none, 2: CIC window^2, 3: TSC window^2
  double longrange_split_rs = 0.0;  // >0: multiply by exp(-k^2 rs^2)
  double prefactor = 1.0;           // e.g. 4 pi G a^2 in code units
};

/// Signed FFT mode number for bin i of n (negative above Nyquist) and the
/// corresponding wavevector component for box length l.
int fft_signed_mode(int i, int n);
double fft_wavenumber(int i, int n, double l);

/// Green function x assignment-window multiplier for spectrum bin
/// (ix, iy, iz) of an (nx, ny, nz) mesh over box lengths (lx, ly, lz):
/// phi_k = green_times_window(...) * rho_k.  Shared verbatim by
/// PoissonSolver and hybrid::HybridSolver's rank-parallel PM path, so both
/// solve the identical spectral problem.
double green_times_window(int ix, int iy, int iz, int nx, int ny, int nz,
                          double lx, double ly, double lz,
                          const PoissonOptions& options);

class PoissonSolver {
 public:
  /// Cubic convenience: n^3 cells over a periodic box of length `box`.
  PoissonSolver(int n, double box);
  /// General: (nx, ny, nz) cells over box lengths (lx, ly, lz).
  PoissonSolver(int nx, int ny, int nz, double lx, double ly, double lz);

  /// rho interior is read; phi interior is written (ghosts untouched).
  /// Grids must match the solver dims.  The k = 0 (mean) mode is set to
  /// zero, which implements the "- <rho>" subtraction exactly.
  void solve(const mesh::Grid3D<double>& rho, mesh::Grid3D<double>& phi,
             const PoissonOptions& options) const;

  /// Spectral force: g_d = -d(phi)/d(x_d) computed as -i k_d phi_k, the
  /// PM force of every solver in src/hybrid/.
  void solve_forces(const mesh::Grid3D<double>& rho,
                    mesh::Grid3D<double>& gx, mesh::Grid3D<double>& gy,
                    mesh::Grid3D<double>& gz,
                    const PoissonOptions& options) const;

  int n() const { return nx_; }
  double box() const { return lx_; }

 private:
  void spectrum_of(const mesh::Grid3D<double>& rho,
                   std::vector<fft::cplx>& spec) const;
  double green_times_window(int ix, int iy, int iz,
                            const PoissonOptions& options) const;
  void wavevector(int ix, int iy, int iz, double& kx, double& ky,
                  double& kz) const;

  int nx_, ny_, nz_;
  double lx_, ly_, lz_;
  fft::RealFft3D fft_;
  // Reusable scratch (sized nx*ny*nz on first use): one solve per step on
  // the serial hot path used to reallocate all of these every call.
  // NOTE: the scratch makes solve()/solve_forces() non-reentrant despite
  // their const signatures — concurrent calls on ONE solver instance race
  // on these buffers.  Use one PoissonSolver per thread/rank (the
  // distributed path already does: its spectral solve goes through
  // fft::ParallelFft3D, not this class).
  mutable std::vector<double> packed_, real_out_;
  mutable std::vector<fft::cplx> spec_, cx_, cy_, cz_;
};

}  // namespace v6d::gravity
