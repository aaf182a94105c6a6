// High-level directional sweeps over the 6-D phase space (paper Eq. 3-5).
//
// Position sweeps advect along x/y/z with per-velocity-cell speed
// u_i / a^2 (the caller folds the 1/a^2 time integral into drift_factor);
// their ghosts come from the swept axis' two received faces (AxisFaces)
// or, where the brick spans the axis, from each line's periodic image.
// Velocity sweeps advect along ux/uy/uz with the spatially varying
// acceleration -grad(phi); they are communication-free (§5.1.3).
//
// Every sweep can run with three interchangeable kernels (scalar reference,
// multi-lane SIMD, LAT); kAuto resolves through simd::resolve_sweep_kernel
// (the paper's Table-1 choice: SIMD for the five non-contiguous axes, LAT
// for uz, the memory-contiguous axis).
#pragma once

#include "mesh/grid.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/advect_kernels.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::vlasov {

/// Kernel policy for the sweeps; resolution lives in simd/dispatch so the
/// whole stack (sweeps, hybrid solver, benches) shares one dispatch point.
using SweepKernel = simd::SweepKernel;

/// Advect along spatial axis (0=x, 1=y, 2=z).  xi per line is
/// u_axis(velocity index) * drift_factor / dx_axis; with faces it requires
/// |xi| <= 1 (std::invalid_argument otherwise).  A decomposed axis must
/// pass its neighbors' faces: null faces wrap inside the brick.
void advect_position_axis(PhaseSpace& f, int axis, double drift_factor,
                          SweepKernel kernel, AxisFaces faces);

/// Advect along velocity axis (0=ux, 1=uy, 2=uz) with acceleration field
/// `accel` (= -dphi/dx_axis on the spatial grid) over time dt.
void advect_velocity_axis(PhaseSpace& f, int axis,
                          const mesh::Grid3D<double>& accel, double dt,
                          SweepKernel kernel);

/// Fused velocity kick: apply all three velocity-axis sweeps to each
/// spatial cell's velocity block while it is cache-hot (one pass over the
/// 6-D array instead of three).  Velocity sweeps are independent across
/// spatial cells, so the result is bit-identical to calling
/// advect_velocity_axis for axes 0, 1, 2 in sequence — the fusion only
/// changes the memory-traffic pattern.  This is the production kick path.
void advect_velocity_all(PhaseSpace& f, const mesh::Grid3D<double>& gx,
                         const mesh::Grid3D<double>& gy,
                         const mesh::Grid3D<double>& gz, double dt,
                         SweepKernel kernel);

/// Largest |xi| any position sweep would see for the given drift factor
/// (used for CFL-limited timestep selection).
double max_position_shift(const PhaseSpace& f, double drift_factor);

/// Largest |xi| a velocity sweep would see for acceleration fields g.
double max_velocity_shift(const PhaseSpace& f,
                          const mesh::Grid3D<double>& gx,
                          const mesh::Grid3D<double>& gy,
                          const mesh::Grid3D<double>& gz, double dt);

}  // namespace v6d::vlasov
