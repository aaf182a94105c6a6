#include "mesh/deposit.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace v6d::mesh {

namespace {

// Kernel weights and the index of the lowest touched cell for one axis.
// Positions are in units of cells, measured so cell centers sit at i + 0.5.
struct AxisWeights {
  int lo;          // lowest global cell index touched
  double w[3];     // up to three weights (NGP: 1, CIC: 2, TSC: 3)
  int count;
};

inline AxisWeights axis_weights(double xc, Assignment assignment) {
  AxisWeights aw{};
  switch (assignment) {
    case Assignment::kNgp: {
      aw.lo = static_cast<int>(std::floor(xc));
      aw.w[0] = 1.0;
      aw.count = 1;
      break;
    }
    case Assignment::kCic: {
      // Distance from the center of the cell containing x.
      const double s = xc - 0.5;
      const int i = static_cast<int>(std::floor(s));
      const double frac = s - i;
      aw.lo = i;
      aw.w[0] = 1.0 - frac;
      aw.w[1] = frac;
      aw.count = 2;
      break;
    }
    case Assignment::kTsc: {
      const int i = static_cast<int>(std::floor(xc));
      const double d = xc - (i + 0.5);  // in (-0.5, 0.5]
      aw.lo = i - 1;
      aw.w[0] = 0.5 * (0.5 - d) * (0.5 - d);
      aw.w[1] = 0.75 - d * d;
      aw.w[2] = 0.5 * (0.5 + d) * (0.5 + d);
      aw.count = 3;
      break;
    }
  }
  return aw;
}

// Wrap a position (in cell units) into [0, n).  Two hazards beyond the
// plain fmod: rounding in `c - n*floor(c/n)` can land exactly on n for
// tiny negative inputs (fold it back), and a non-finite position would
// make the later float->int casts undefined behaviour (UBSan:
// float-cast-overflow) instead of a diagnosable error — so reject it
// here, at the first point the particle state is interpreted.
inline double wrap_cells(double c, int n) {
  if (!std::isfinite(c))
    throw std::domain_error("mesh: non-finite particle position");
  c -= n * std::floor(c / n);
  if (c >= n) c -= n;
  return c;
}

}  // namespace

void deposit(Grid3D<double>& rho, const MeshPatch& patch,
             std::span<const double> x, std::span<const double> y,
             std::span<const double> z, double particle_mass,
             Assignment assignment) {
  assert(x.size() == y.size() && y.size() == z.size());
  const double h = patch.h();
  const double inv_h = 1.0 / h;
  const double w_mass = particle_mass / (h * h * h);
  const int n = patch.n_global;

  for (std::size_t p = 0; p < x.size(); ++p) {
    // Position in cell units, wrapped into [0, n).
    const double cx = wrap_cells(x[p] * inv_h, n);
    const double cy = wrap_cells(y[p] * inv_h, n);
    const double cz = wrap_cells(z[p] * inv_h, n);

    const AxisWeights ax = axis_weights(cx, assignment);
    const AxisWeights ay = axis_weights(cy, assignment);
    const AxisWeights az = axis_weights(cz, assignment);
    for (int a = 0; a < ax.count; ++a) {
      const int gi = ax.lo + a;
      for (int b = 0; b < ay.count; ++b) {
        const int gj = ay.lo + b;
        const double wab = ax.w[a] * ay.w[b] * w_mass;
        for (int c = 0; c < az.count; ++c) {
          const int gk = az.lo + c;
          // Local indices relative to this patch; periodic wrap against the
          // *global* mesh, then shift.  Deposits near the brick boundary
          // land in ghost cells and are folded by the caller.
          int li = Grid3D<double>::wrap(gi, n) - patch.offset[0];
          int lj = Grid3D<double>::wrap(gj, n) - patch.offset[1];
          int lk = Grid3D<double>::wrap(gk, n) - patch.offset[2];
          // Prefer the ghost-image representation when the wrapped index
          // jumped across the box (single-rank patches cover the whole box).
          if (li >= rho.nx() + rho.ghost()) li -= n;
          if (li < -rho.ghost()) li += n;
          if (lj >= rho.ny() + rho.ghost()) lj -= n;
          if (lj < -rho.ghost()) lj += n;
          if (lk >= rho.nz() + rho.ghost()) lk -= n;
          if (lk < -rho.ghost()) lk += n;
          rho.at(li, lj, lk) += wab * az.w[c];
        }
      }
    }
  }
}

double interpolate(const Grid3D<double>& field, const MeshPatch& patch,
                   double x, double y, double z, Assignment assignment) {
  const double inv_h = 1.0 / patch.h();
  const int n = patch.n_global;
  const double cx = wrap_cells(x * inv_h, n);
  const double cy = wrap_cells(y * inv_h, n);
  const double cz = wrap_cells(z * inv_h, n);

  const AxisWeights ax = axis_weights(cx, assignment);
  const AxisWeights ay = axis_weights(cy, assignment);
  const AxisWeights az = axis_weights(cz, assignment);
  double acc = 0.0;
  for (int a = 0; a < ax.count; ++a) {
    int li = Grid3D<double>::wrap(ax.lo + a, n) - patch.offset[0];
    if (li >= field.nx() + field.ghost()) li -= n;
    if (li < -field.ghost()) li += n;
    for (int b = 0; b < ay.count; ++b) {
      int lj = Grid3D<double>::wrap(ay.lo + b, n) - patch.offset[1];
      if (lj >= field.ny() + field.ghost()) lj -= n;
      if (lj < -field.ghost()) lj += n;
      const double wab = ax.w[a] * ay.w[b];
      for (int c = 0; c < az.count; ++c) {
        int lk = Grid3D<double>::wrap(az.lo + c, n) - patch.offset[2];
        if (lk >= field.nz() + field.ghost()) lk -= n;
        if (lk < -field.ghost()) lk += n;
        acc += wab * az.w[c] * field.at(li, lj, lk);
      }
    }
  }
  return acc;
}

}  // namespace v6d::mesh
