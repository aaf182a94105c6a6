#include "gravity/pp_kernel.hpp"

#include <cmath>

#include "gravity/pp_kernel_impl.hpp"
#include "simd/dispatch.hpp"

namespace v6d::gravity {

double shortrange_s(double u) {
  return std::erfc(u) + 2.0 / std::sqrt(M_PI) * u * std::exp(-u * u);
}

CutoffPoly::CutoffPoly(double u_cut, int degree) : u_cut_(u_cut) {
  // Chebyshev coefficients from function values at Chebyshev nodes
  // (discrete cosine transform).  S(u) is analytic in u, so the series
  // converges spectrally: degree ~14 reaches ~1e-7 on u_cut ~ 2-3.
  const int n = degree + 1;
  std::vector<double> fk(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double xk = std::cos(M_PI * (k + 0.5) / n);   // node in (-1, 1)
    const double u = 0.5 * u_cut * (xk + 1.0);
    fk[static_cast<std::size_t>(k)] = shortrange_s(u);
  }
  coeffs_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double acc = 0.0;
    for (int k = 0; k < n; ++k)
      acc += fk[static_cast<std::size_t>(k)] *
             std::cos(M_PI * j * (k + 0.5) / n);
    coeffs_[static_cast<std::size_t>(j)] =
        static_cast<float>((j == 0 ? 1.0 : 2.0) * acc / n);
  }
}

float CutoffPoly::eval(float u) const {
  if (u >= static_cast<float>(u_cut_)) return 0.0f;
  // Clenshaw recurrence on x = 2u/u_cut - 1.
  const float x = 2.0f * u / static_cast<float>(u_cut_) - 1.0f;
  const float two_x = 2.0f * x;
  float b1 = 0.0f, b2 = 0.0f;
  for (std::size_t k = coeffs_.size(); k-- > 1;) {
    const float b0 = coeffs_[k] + two_x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  return coeffs_[0] + x * b1 - b2;
}

double CutoffPoly::max_fit_error() const {
  double worst = 0.0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    const double u = u_cut_ * i / samples;
    const double err =
        std::fabs(eval(static_cast<float>(u)) - shortrange_s(u));
    worst = std::max(worst, err);
  }
  return worst;
}

void pp_accumulate_scalar(const double* tx, const double* ty,
                          const double* tz, std::size_t nt, const double* sx,
                          const double* sy, const double* sz,
                          const double* sm, std::size_t ns,
                          const PpKernelParams& params, double* ax,
                          double* ay, double* az) {
  const double eps2 = params.eps * params.eps;
  const double rcut2 = params.rcut > 0.0 ? params.rcut * params.rcut : 0.0;
  const double inv_2rs = params.rs > 0.0 ? 1.0 / (2.0 * params.rs) : 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    double gx = 0.0, gy = 0.0, gz = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const double dx = sx[s] - tx[t];
      const double dy = sy[s] - ty[t];
      const double dz = sz[s] - tz[t];
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      if (r2 == 0.0) continue;
      if (rcut2 > 0.0 && r2 > rcut2) continue;
      const double r = std::sqrt(r2);
      double f = sm[s] / (r2 * r);
      if (params.rs > 0.0) f *= shortrange_s(r * inv_2rs);
      gx += f * dx;
      gy += f * dy;
      gz += f * dz;
    }
    ax[t] += gx;
    ay[t] += gy;
    az[t] += gz;
  }
}

namespace {

using PpFn = void (*)(const float*, const float*, const float*, std::size_t,
                      const float*, const float*, const float*, const float*,
                      std::size_t, const PpKernelParams&, const CutoffPoly&,
                      float*, float*, float*);

void pp_baseline(const float* tx, const float* ty, const float* tz,
                 std::size_t nt, const float* sx, const float* sy,
                 const float* sz, const float* sm, std::size_t ns,
                 const PpKernelParams& params, const CutoffPoly& poly,
                 float* ax, float* ay, float* az) {
  detail::pp_accumulate<simd::sweep_lanes(simd::SweepTier::kBaseline)>(
      tx, ty, tz, nt, sx, sy, sz, sm, ns, params, poly, ax, ay, az);
}
V6D_SWEEP_TIER_AVX512 void pp_avx512(const float* tx, const float* ty,
                                     const float* tz, std::size_t nt,
                                     const float* sx, const float* sy,
                                     const float* sz, const float* sm,
                                     std::size_t ns,
                                     const PpKernelParams& params,
                                     const CutoffPoly& poly, float* ax,
                                     float* ay, float* az) {
  detail::pp_accumulate<simd::sweep_lanes(simd::SweepTier::kAvx512)>(
      tx, ty, tz, nt, sx, sy, sz, sm, ns, params, poly, ax, ay, az);
}

}  // namespace

void pp_accumulate_simd(const float* tx, const float* ty, const float* tz,
                        std::size_t nt, const float* sx, const float* sy,
                        const float* sz, const float* sm, std::size_t ns,
                        const PpKernelParams& params, const CutoffPoly& poly,
                        float* ax, float* ay, float* az) {
  simd::for_sweep_tier<PpFn>(simd::sweep_tier(), pp_baseline, pp_avx512)(
      tx, ty, tz, nt, sx, sy, sz, sm, ns, params, poly, ax, ay, az);
}

}  // namespace v6d::gravity
