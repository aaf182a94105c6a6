// The Strang-split update sequence of paper Eq. (5):
//
//   f^{n+1} = Duz(dt/2) Duy(dt/2) Dux(dt/2)
//             Dx(dt) Dy(dt) Dz(dt)
//             Duz(dt/2) Duy(dt/2) Dux(dt/2) f^n
//
// i.e. half kick in velocity space, full drift in position space, half
// kick again — symmetric (2nd-order in time) while each 1-D operator is
// 5th-order in its own coordinate and integrated in a single stage.
#pragma once

#include <functional>

#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

/// Fills the spatial ghosts the position sweep along `axis` reads (that
/// axis' ghosts at interior transverse positions) before it runs.
/// hybrid::HybridSolver plugs in the single-axis face exchange
/// (mesh::HaloPlan).
using HaloFiller = std::function<void(PhaseSpace&, int axis)>;

/// The plan-free filler of kinematic steps: the swept axis' faces from
/// their periodic image, the wrap mesh::HaloPlan runs on undecomposed
/// axes.
HaloFiller periodic_halo_filler();

struct SplitStepConfig {
  double drift = 0.0;      // time integral of dt/a^2 over the step
  double kick_pre = 0.0;   // dt of the leading half kick
  double kick_post = 0.0;  // dt of the trailing half kick
  SweepKernel kernel = SweepKernel::kAuto;
};

/// One Eq.(5) step with *fixed* acceleration fields (gx, gy, gz =
/// -grad(phi) on the spatial grid).  Self-consistent solvers interleave
/// Poisson solves between the kick halves themselves; this helper serves
/// kinematic tests, examples, and the ablation benches.
void split_step_fixed_accel(PhaseSpace& f, const mesh::Grid3D<double>& gx,
                            const mesh::Grid3D<double>& gy,
                            const mesh::Grid3D<double>& gz,
                            const SplitStepConfig& config,
                            const HaloFiller& halo);

/// The kick half-sequence Dux Duy Duz (order per Eq. 5).
void kick_half(PhaseSpace& f, const mesh::Grid3D<double>& gx,
               const mesh::Grid3D<double>& gy,
               const mesh::Grid3D<double>& gz, double dt,
               SweepKernel kernel);

/// The drift sequence Dx Dy Dz; requires filled ghosts per axis — the
/// halo filler runs before each axis sweep and subcycle (ghosts are
/// invalidated by sweeps).
void drift_full(PhaseSpace& f, double drift_factor, SweepKernel kernel,
                const HaloFiller& halo);

}  // namespace v6d::vlasov
