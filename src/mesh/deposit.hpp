// Mass assignment (deposit) and field interpolation (gather) between
// particles and mesh, with the standard NGP / CIC / TSC kernels.
//
// The PM part of the TreePM solver deposits CDM particle mass with CIC
// (cloud-in-cell), solves Poisson in k-space, and gathers forces back at
// particle positions with the *same* kernel — using matching deposit and
// gather kernels keeps the self-force zero on a periodic mesh.
#pragma once

#include <span>

#include "mesh/grid.hpp"

namespace v6d::mesh {

enum class Assignment { kNgp, kCic, kTsc };

/// Geometry of the (local) mesh patch in global coordinates.
struct MeshPatch {
  double box = 1.0;       // global box length (cubic, periodic)
  int n_global = 1;       // global cells per axis (cubic)
  int offset[3] = {0, 0, 0};  // global index of local cell (0,0,0)

  double h() const { return box / n_global; }
};

/// Accumulate particle mass density onto the grid: rho += m_i W(x - x_i)/h^3.
/// Positions are global, periodic in [0, box).  Contributions within the
/// `ghost` ring are deposited to ghost cells; callers fold them afterwards
/// (Grid3D::fold_ghosts_periodic or mesh::GridFoldPlan).  CIC needs
/// ghost >= 1, TSC ghost >= 1 as well (their support is <= 1 cell beyond
/// the owner when the owner is local).
void deposit(Grid3D<double>& rho, const MeshPatch& patch,
             std::span<const double> x, std::span<const double> y,
             std::span<const double> z, double particle_mass,
             Assignment assignment);

/// Interpolate a mesh field to a particle position with the same kernels.
/// Requires filled ghosts (>= 1 layer for CIC/TSC).
double interpolate(const Grid3D<double>& field, const MeshPatch& patch,
                   double x, double y, double z, Assignment assignment);

}  // namespace v6d::mesh
