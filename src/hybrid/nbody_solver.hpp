// Cosmological N-body solver (TreePM), optionally with a second "hot"
// particle species — the TianNu-style baseline configuration the paper
// compares against in §5.4 and §7.2: CDM particles plus Fermi-Dirac-
// sampled neutrino particles.
//
// It runs HybridSolver's force pass with particles in place of the Vlasov
// fluid: both species are CIC-deposited onto one PM mesh (CDM first, then
// the hot species, each folded), one long-range-filtered Poisson solve
// gives the mesh force both gather, and the CDM tree adds the short range
// at both (the hot species' own short-range self-interaction is negligible
// by free streaming).  With no hot species the step is bit-identical to a
// HybridSolver with an empty phase space.
#pragma once

#include <optional>

#include "cosmology/background.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::hybrid {

class NBodySolver {
 public:
  NBodySolver(double box, const cosmo::Background& background,
              const HybridOptions& options);

  nbody::Particles& cdm() { return cdm_; }
  std::optional<nbody::Particles>& hot() { return hot_; }
  void set_cdm(nbody::Particles p) { cdm_ = std::move(p); }
  void set_hot(nbody::Particles p) { hot_ = std::move(p); }

  /// One step from scale factor a0 to a1, the leapfrog HybridSolver
  /// takes (hybrid/leapfrog.hpp): one kick by the owed factor plus
  /// kick_factor(a0, a_mid), the drift, the force pass at a1, and
  /// kick_factor(a_mid, a1) owed.  Velocities lag positions by that
  /// half-kick until the next step or synchronize().
  void step(double a0, double a1);

  /// Apply the owed half-kick to both species and zero it; a no-op when
  /// nothing is owed.  Call it before reading velocities after step().
  void synchronize();

 private:
  void compute_forces(double a);
  void kick(double kick_factor);

  double box_;
  cosmo::Background background_;
  HybridOptions options_;
  gravity::PoissonSolver poisson_;
  mesh::MeshPatch patch_;
  TreePmDerived treepm_derived_;
  mesh::Grid3D<double> rho_, gx_, gy_, gz_;  // both species, filtered
  nbody::Particles cdm_;
  std::optional<nbody::Particles> hot_;
  std::vector<double> ax_, ay_, az_;     // CDM accelerations
  std::vector<double> hax_, hay_, haz_;  // hot-species accelerations
  bool forces_fresh_ = false;
  double owed_kick_ = 0.0;  // kick factor owed on the cached forces
};

}  // namespace v6d::hybrid
