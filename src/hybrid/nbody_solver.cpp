#include "hybrid/nbody_solver.hpp"

#include "hybrid/leapfrog.hpp"
#include "mesh/interp.hpp"

namespace v6d::hybrid {

namespace {

/// Long-range mesh accelerations at every particle of `p`.
void gather_mesh(const mesh::Grid3D<double>& gx, const mesh::Grid3D<double>& gy,
                 const mesh::Grid3D<double>& gz, const mesh::MeshPatch& patch,
                 const nbody::Particles& p, std::vector<double>& ax,
                 std::vector<double>& ay, std::vector<double>& az) {
  ax.assign(p.size(), 0.0);
  ay.assign(p.size(), 0.0);
  az.assign(p.size(), 0.0);
  mesh::gather_forces(gx, gy, gz, patch, p.x, p.y, p.z, ax, ay, az,
                      mesh::Assignment::kCic);
}

}  // namespace

NBodySolver::NBodySolver(double box, const cosmo::Background& background,
                         const HybridOptions& options)
    : box_(box),
      background_(background),
      options_(options),
      poisson_(options.pm_grid, box),
      rho_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gx_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gy_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gz_(options.pm_grid, options.pm_grid, options.pm_grid, 2) {
  patch_.box = box;
  patch_.n_global = options.pm_grid;
  treepm_derived_ = TreePmDerived::from(options, box);
}

void NBodySolver::compute_forces(double a) {
  const double prefactor = HybridSolver::poisson_prefactor(a);

  // --- mesh (PM long-range) from *all* species ---
  rho_.fill(0.0);
  mesh::deposit(rho_, patch_, cdm_.x, cdm_.y, cdm_.z, cdm_.mass,
                mesh::Assignment::kCic);
  rho_.fold_ghosts_periodic();
  if (hot_) {
    mesh::deposit(rho_, patch_, hot_->x, hot_->y, hot_->z, hot_->mass,
                  mesh::Assignment::kCic);
    rho_.fold_ghosts_periodic();
  }
  gravity::PoissonOptions popt;
  popt.prefactor = prefactor;
  popt.deconvolve_order = 2;  // CIC
  popt.green = gravity::GreenFunction::kExactK2;
  popt.longrange_split_rs = options_.enable_tree ? treepm_derived_.rs : 0.0;
  poisson_.solve_forces(rho_, gx_, gy_, gz_, popt);
  gx_.fill_ghosts_periodic();
  gy_.fill_ghosts_periodic();
  gz_.fill_ghosts_periodic();
  gather_mesh(gx_, gy_, gz_, patch_, cdm_, ax_, ay_, az_);
  if (hot_) gather_mesh(gx_, gy_, gz_, patch_, *hot_, hax_, hay_, haz_);

  // --- tree (short-range) sourced by CDM, walked at both species ---
  add_tree_accelerations(cdm_, cdm_, box_, options_, treepm_derived_,
                         prefactor, all_indices(cdm_.size()), ax_, ay_, az_);
  if (hot_)
    add_tree_accelerations(cdm_, *hot_, box_, options_, treepm_derived_,
                           prefactor, all_indices(hot_->size()), hax_, hay_,
                           haz_);
  forces_fresh_ = true;
}

void NBodySolver::kick(double kick_factor) {
  nbody::kick(cdm_, ax_, ay_, az_, kick_factor);
  if (hot_) nbody::kick(*hot_, hax_, hay_, haz_, kick_factor);
}

void NBodySolver::step(double a0, double a1) {
  leapfrog_step(
      background_, a0, a1, forces_fresh_, owed_kick_,
      [this](double k) { kick(k); },
      [this](double d) {
        nbody::drift(cdm_, d, box_);
        if (hot_) nbody::drift(*hot_, d, box_);
      },
      [this](double a) { compute_forces(a); });
}

void NBodySolver::synchronize() {
  settle_owed_kick(owed_kick_, [this](double k) { kick(k); });
}

}  // namespace v6d::hybrid
