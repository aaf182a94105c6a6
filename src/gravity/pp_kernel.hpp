// Particle-particle interaction kernel ("Phantom-GRAPE" role, §5.1.2).
//
// Computes softened short-range gravitational accelerations between targets
// and sources in single precision with explicit SIMD over sources, plus a
// scalar double-precision reference.  The paper reports 1.2e9
// interactions/s with SVE vs 2.4e7 without on one A64FX core; the
// pp_kernel bench reproduces the scalar-vs-SIMD contrast on the host, per
// sweep tier.  The SIMD kernel's one body (pp_kernel_impl.hpp) evaluates
// 16 sources per group on the AVX-512 tier, as the paper's 16-lane SVE
// kernel does, and 4 on the baseline tier; it sums in 4-lane order on
// both, so the tiers give equal bits.
//
// The short-range force of the TreePM split (Gaussian split, Bagla 2002) is
//   f(r) = G m / r^2 * S(r / (2 rs)),
//   S(u) = erfc(u) + (2/sqrt(pi)) u exp(-u^2),
// softened with a Plummer epsilon.  For the SIMD path S(u) is evaluated
// from a Chebyshev polynomial fit in u^2 (no erfc/exp in the inner loop),
// accurate to ~1e-6 on u in [0, u_cut]; beyond u_cut the force is zero,
// consistent with the tree walk's cutoff radius.
#pragma once

#include <cstddef>
#include <vector>

namespace v6d::gravity {

/// S(u) cutoff evaluated exactly (erfc form); reference and fit target.
double shortrange_s(double u);

/// Chebyshev series of S(u) on u in [0, u_cut], evaluated with the
/// Clenshaw recurrence (numerically stable at any practical degree; S is
/// analytic in u so convergence is spectral).
class CutoffPoly {
 public:
  CutoffPoly() = default;
  CutoffPoly(double u_cut, int degree);

  double u_cut() const { return u_cut_; }
  const std::vector<float>& coeffs() const { return coeffs_; }

  /// Scalar evaluation at u >= 0; 0 beyond the cutoff.
  float eval(float u) const;
  /// Max abs error of the fit sampled on a fine grid (diagnostics/tests).
  double max_fit_error() const;

 private:
  double u_cut_ = 0.0;
  std::vector<float> coeffs_;  // Chebyshev coefficients on x = 2u/ucut - 1
};

struct PpKernelParams {
  double eps = 0.0;   // Plummer softening
  double rs = 0.0;    // TreePM split scale; <= 0 => pure 1/r^2 (no cutoff)
  double rcut = 0.0;  // interaction cutoff radius (usually ~ 3 * 2 rs)
};

/// Scalar double-precision reference ("w/o SIMD" row of the bench).
/// Accumulates accelerations (G = 1; caller scales) into ax/ay/az.
void pp_accumulate_scalar(const double* tx, const double* ty,
                          const double* tz, std::size_t nt, const double* sx,
                          const double* sy, const double* sz,
                          const double* sm, std::size_t ns,
                          const PpKernelParams& params, double* ax,
                          double* ay, double* az);

/// Single-precision SIMD kernel, vectorized over sources on the process's
/// sweep tier (simd/dispatch.hpp): 16-lane groups, then 4-lane groups on
/// AVX-512, 4-lane groups on the baseline.  The sums run in 4 lanes on
/// every tier and under any -march: source s adds to lane s % 4 over the
/// whole 4-lane groups, the lanes are summed in order, then the tail adds
/// one source at a time, so the result is the same bits everywhere.
/// Targets and sources are given as float SoA; the caller is responsible
/// for staging coordinates relative to a local origin so float precision
/// suffices (the tree walk stages displacements from each target).
void pp_accumulate_simd(const float* tx, const float* ty, const float* tz,
                        std::size_t nt, const float* sx, const float* sy,
                        const float* sz, const float* sm, std::size_t ns,
                        const PpKernelParams& params, const CutoffPoly& poly,
                        float* ax, float* ay, float* az);

}  // namespace v6d::gravity
