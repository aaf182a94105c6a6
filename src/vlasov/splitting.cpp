#include "vlasov/splitting.hpp"

#include <algorithm>
#include <cmath>

namespace v6d::vlasov {

HaloFiller periodic_halo_filler() {
  return [](PhaseSpace& f, int) { f.fill_ghosts_periodic(); };
}

void kick_half(PhaseSpace& f, const mesh::Grid3D<double>& gx,
               const mesh::Grid3D<double>& gy,
               const mesh::Grid3D<double>& gz, double dt,
               SweepKernel kernel) {
  if (dt == 0.0) return;
  // Eq. (5) applies Dux, then Duy, then Duz (rightmost operator first).
  // The fused kick runs all three sweeps per cache-hot velocity block; it
  // is bit-identical to three sequential advect_velocity_axis passes
  // because velocity sweeps never couple spatial cells.
  advect_velocity_all(f, gx, gy, gz, dt, kernel);
}

void drift_full(PhaseSpace& f, double drift_factor, SweepKernel kernel,
                const HaloFiller& halo) {
  if (drift_factor == 0.0) return;
  // The fixed spatial halo (3 layers) supports |xi| < 1; larger drifts are
  // subcycled with a halo refill per pass.  Production steps are CFL-
  // limited below 1 anyway, so this is a safety net, not a hot path.
  const double max_shift = max_position_shift(f, drift_factor);
  const int cycles = std::max(1, static_cast<int>(std::ceil(max_shift / 0.999)));
  const double sub = drift_factor / cycles;
  // Eq. (5) order: Dz, then Dy, then Dx (rightmost first).  Each sweep
  // invalidates ghosts, so the halo filler runs before every axis.
  for (int axis : {2, 1, 0}) {
    for (int c = 0; c < cycles; ++c) {
      halo(f, axis);
      advect_position_axis(f, axis, sub, kernel);
    }
  }
}

void split_step_fixed_accel(PhaseSpace& f, const mesh::Grid3D<double>& gx,
                            const mesh::Grid3D<double>& gy,
                            const mesh::Grid3D<double>& gz,
                            const SplitStepConfig& config,
                            const HaloFiller& halo) {
  kick_half(f, gx, gy, gz, config.kick_pre, config.kernel);
  drift_full(f, config.drift, config.kernel, halo);
  kick_half(f, gx, gy, gz, config.kick_post, config.kernel);
}

}  // namespace v6d::vlasov
