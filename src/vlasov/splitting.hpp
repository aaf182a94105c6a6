// The Strang-split update sequence of paper Eq. (5):
//
//   f^{n+1} = Duz(dt/2) Duy(dt/2) Dux(dt/2)
//             Dx(dt) Dy(dt) Dz(dt)
//             Duz(dt/2) Duy(dt/2) Dux(dt/2) f^n
//
// i.e. half kick in velocity space, full drift in position space, half
// kick again — symmetric (2nd-order in time) while each 1-D operator is
// 5th-order in its own coordinate and integrated in a single stage.
// hybrid::HybridSolver composes its step from these pieces, with the force
// solves between them, in leapfrog form: a step's trailing half-kick and
// the next step's leading one act on the same forces, so they run as one
// kick by the sum of their factors (hybrid/leapfrog.hpp): one velocity
// pass per step.
#pragma once

#include <functional>

#include "vlasov/sweeps.hpp"

namespace v6d::vlasov {

/// Returns the two ghost faces the position sweep along `axis` reads,
/// before it runs (null on an axis the brick spans).
/// hybrid::HybridSolver plugs in the single-axis face exchange
/// (mesh::HaloPlan); the faces must stay valid until the sweep returns.
using HaloFiller = std::function<AxisFaces(PhaseSpace&, int axis)>;

/// The plan-free filler of kinematic steps: null faces on every axis, so
/// each sweep takes its ghosts from the periodic image, as it does on the
/// undecomposed axes of a mesh::HaloPlan.
HaloFiller periodic_halo_filler();

/// The kick sequence Dux Duy Duz (order per Eq. 5) by kick factor `dt`:
/// one of Eq. 5's half-kicks, or the leapfrog's merged kick.
void kick_half(PhaseSpace& f, const mesh::Grid3D<double>& gx,
               const mesh::Grid3D<double>& gy,
               const mesh::Grid3D<double>& gz, double dt,
               SweepKernel kernel);

/// The drift sequence Dx Dy Dz; the halo filler runs before each axis
/// sweep and subcycle (each sweep changes the faces the next one reads).
void drift_full(PhaseSpace& f, double drift_factor, SweepKernel kernel,
                const HaloFiller& halo);

}  // namespace v6d::vlasov
