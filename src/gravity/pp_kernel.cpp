#include "gravity/pp_kernel.hpp"

#include <cmath>

#include "simd/dispatch.hpp"
#include "simd/pack.hpp"

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

void pp_accumulate_simd(const float* tx, const float* ty, const float* tz,
                        std::size_t nt, const float* sx, const float* sy,
                        const float* sz, const float* sm, std::size_t ns,
                        const PpKernelParams& params, const CutoffPoly& poly,
                        float* ax, float* ay, float* az) {
  // The sweeps' lane count in every build: the lane partial sums, and so
  // the forces and a run's digest, do not depend on -march.
  using P = simd::Pack<float, simd::kSweepLanes>;
  constexpr int L = P::width;
  const float eps2 = static_cast<float>(params.eps * params.eps);
  const float inv_2rs =
      params.rs > 0.0 ? static_cast<float>(1.0 / (2.0 * params.rs)) : 0.0f;
  const float rcut2 =
      params.rcut > 0.0 ? static_cast<float>(params.rcut * params.rcut)
                        : 0.0f;
  const bool split = params.rs > 0.0;
  const auto& c = poly.coeffs();

  // Vectorize over sources; pad the tail with zero-mass phantom sources.
  const std::size_t ns_full = ns / L * L;
  for (std::size_t t = 0; t < nt; ++t) {
    const P px = P::broadcast(tx[t]);
    const P py = P::broadcast(ty[t]);
    const P pz = P::broadcast(tz[t]);
    P gx = P::zero(), gy = P::zero(), gz = P::zero();
    const P veps2 = P::broadcast(eps2);
    const P one = P::broadcast(1.0f);
    std::size_t s = 0;
    for (; s < ns_full; s += L) {
      const P dx = P::load(sx + s) - px;
      const P dy = P::load(sy + s) - py;
      const P dz = P::load(sz + s) - pz;
      const P r2 = simd::fma(dz, dz, simd::fma(dy, dy, dx * dx)) + veps2;
      const P r = simd::sqrt(r2);
      const P inv_r3 = one / (r2 * r);
      P f = P::load(sm + s) * inv_r3;
      if (split) {
        // Clenshaw evaluation of the Chebyshev series at x = 2u/ucut - 1.
        const P u = r * P::broadcast(inv_2rs);
        const P x = u * P::broadcast(2.0f / static_cast<float>(poly.u_cut())) -
                    P::broadcast(1.0f);
        const P two_x = x + x;
        P b1 = P::zero(), b2 = P::zero();
        for (std::size_t k = c.size(); k-- > 1;) {
          const P b0 = simd::fma(two_x, b1, P::broadcast(c[k]) - b2);
          b2 = b1;
          b1 = b0;
        }
        const P spoly = simd::fma(x, b1, P::broadcast(c[0]) - b2);
        f = f * spoly;
      }
      if (rcut2 > 0.0f) {
        const auto inside = r2 < P::broadcast(rcut2);
        f = simd::select<float, L>(inside, f, P::zero());
      }
      // Suppress self-interaction (r2 == 0 with zero softening).
      f = simd::select<float, L>(r2 > P::zero(), f, P::zero());
      gx = simd::fma(f, dx, gx);
      gy = simd::fma(f, dy, gy);
      gz = simd::fma(f, dz, gz);
    }
    float hx = simd::horizontal_sum(gx);
    float hy = simd::horizontal_sum(gy);
    float hz = simd::horizontal_sum(gz);
    // Scalar tail.
    for (; s < ns; ++s) {
      const float dx = sx[s] - tx[t];
      const float dy = sy[s] - ty[t];
      const float dz = sz[s] - tz[t];
      float r2 = dx * dx + dy * dy + dz * dz + eps2;
      if (r2 == 0.0f) continue;
      if (rcut2 > 0.0f && r2 >= rcut2) continue;
      const float r = std::sqrt(r2);
      float f = sm[s] / (r2 * r);
      if (split) f *= poly.eval(r * inv_2rs);
      hx += f * dx;
      hy += f * dy;
      hz += f * dz;
    }
    ax[t] += hx;
    ay[t] += hy;
    az[t] += hz;
  }
}

}  // namespace v6d::gravity
