// Hybrid Vlasov / N-body solver — the paper's production configuration
// (§5.1): CDM as TreePM particles, massive neutrinos as a 6-D phase-space
// fluid, coupled through one gravitational potential whose source is the
// sum of the CIC-deposited CDM density and the 0th velocity moment of f.
//
// Force assembly per step (KDK, shared clock):
//   CDM  <- PM long-range from rho_cdm (CIC-deconvolved, exp(-k^2 rs^2))
//         + tree short-range from CDM particles
//         + full mesh force from rho_nu (neutrinos are smooth; they have
//           no short-range complement)
//   nu   <- full mesh force from rho_cdm (deconvolved) + rho_nu, evaluated
//           on the Vlasov spatial grid (the paper's Vlasov component sees
//           gravity at PM resolution).
//
// The neutrino kicks are the velocity-space sweeps of Eq. (4)-(5); the
// drifts are the position-space sweeps; both components share the same
// drift/kick factors from the background integrator.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "common/timer.hpp"
#include "cosmology/background.hpp"
#include "gravity/poisson.hpp"
#include "gravity/pp_kernel.hpp"
#include "gravity/tree.hpp"
#include "gravity/treepm.hpp"
#include "mesh/deposit.hpp"
#include "nbody/integrator.hpp"
#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"

namespace v6d::hybrid {

struct HybridOptions {
  int pm_grid = 16;                       // PM mesh per axis
  gravity::TreePmParams treepm;           // tree parameters
  vlasov::SweepKernel kernel = vlasov::SweepKernel::kAuto;
  double cfl = 0.9;                       // position-sweep |xi| bound
  bool enable_tree = true;                // PM-only when false
};

/// TreePM force-split lengths derived from the options and the mesh
/// spacing.  Shared by the serial and distributed solvers so the split
/// numerics cannot drift apart.
struct TreePmDerived {
  double rs = 0.0;    // long/short split scale
  double rcut = 0.0;  // short-range cutoff radius
  double eps = 0.0;   // force softening
  gravity::CutoffPoly poly;

  static TreePmDerived from(const HybridOptions& options, double box);
};

/// Accumulate (+=) the Barnes-Hut short-range accelerations at the
/// particles of `at` that `targets` names (indices into `at`), scaled by
/// the Poisson prefactor.  The tree is built over the whole of `cdm`; a
/// target's force depends only on that tree and the target's position, so
/// any partition of the indices reproduces one full pass target by target.
/// No-op when the tree is disabled or `targets` is empty.  The serial
/// solver walks every CDM particle, the distributed one the CDM particles
/// its rank owns, and NBodySolver also its hot species: all call this
/// same block.
void add_tree_accelerations(const nbody::Particles& cdm,
                            const nbody::Particles& at, double box,
                            const HybridOptions& options,
                            const TreePmDerived& derived, double prefactor,
                            std::span<const std::size_t> targets,
                            std::vector<double>& ax, std::vector<double>& ay,
                            std::vector<double>& az);

/// Every index of a set of `n` particles (the full target list).
std::vector<std::size_t> all_indices(std::size_t n);

/// Inject the 0th velocity moment `rho_v` of `f` (on its spatial grid)
/// into the PM mesh `rho` through `patch`: every Vlasov cell deposits its
/// mass (rho * dvol) at its center with CIC, which reduces to the identity
/// when the two grids coincide.  `rho` is zeroed first; the spill into its
/// ghosts is left for the caller's fold.  Cell centers are global
/// coordinates, so a brick of a distributed phase space injects into its
/// PM brick the same way.
void inject_nu_density(const vlasov::PhaseSpace& f,
                       const mesh::Grid3D<double>& rho_v,
                       const mesh::MeshPatch& patch,
                       mesh::Grid3D<double>& rho);

/// Sample the mesh accelerations (gx, gy, gz; ghosts filled) at the
/// Vlasov cell centers of `f` with CIC: the neutrino kick fields.
void sample_nu_accelerations(const vlasov::PhaseSpace& f,
                             const mesh::Grid3D<double>& gx,
                             const mesh::Grid3D<double>& gy,
                             const mesh::Grid3D<double>& gz,
                             const mesh::MeshPatch& patch,
                             mesh::Grid3D<double>& ax,
                             mesh::Grid3D<double>& ay,
                             mesh::Grid3D<double>& az);

/// CFL-limited step search: the largest a1 <= a0 + da_max with
/// max_shift(a1) <= cfl, via the shared backoff iteration.  `max_shift`
/// supplies the position-sweep bound (local, or allreduce-d by the
/// distributed solver).
double cfl_limited_step(double a0, double da_max, double cfl,
                        const std::function<double(double)>& max_shift);

class HybridSolver {
 public:
  /// Takes ownership of the phase space (may have zero-size dims if the
  /// run is CDM-only) and the particle set.
  HybridSolver(vlasov::PhaseSpace f, nbody::Particles cdm, double box,
               const cosmo::Background& background,
               const HybridOptions& options);

  vlasov::PhaseSpace& neutrinos() { return f_; }
  const vlasov::PhaseSpace& neutrinos() const { return f_; }
  nbody::Particles& cdm() { return cdm_; }
  const nbody::Particles& cdm() const { return cdm_; }

  /// Construction parameters, exposed so the distributed solver
  /// (src/parallel/) can shard an already built solver without re-plumbing
  /// the scenario layer.
  const HybridOptions& options() const { return options_; }
  const cosmo::Background& background() const { return background_; }
  double box() const { return box_; }

  /// One KDK step from scale factor a0 to a1 (caller controls step size;
  /// see suggest_next_a for the CFL-limited choice).
  void step(double a0, double a1);

  /// Largest a1 <= a0 + da_max keeping every position sweep under the CFL
  /// bound.
  double suggest_next_a(double a0, double da_max) const;

  /// Total mass (CDM + neutrino) in critical-density units (conservation
  /// diagnostics).
  double total_mass() const;

  /// Neutrino density on the PM grid (refreshed by the last force solve).
  const mesh::Grid3D<double>& nu_density() const { return rho_nu_; }
  const mesh::Grid3D<double>& cdm_density() const { return rho_cdm_; }

  TimerRegistry& timers() { return timers_; }
  static double poisson_prefactor(double a) { return 1.5 / a; }

  /// The step-boundary force cache: accelerations computed from the
  /// post-drift state at the end of the last step and reused by the next
  /// step's leading kick.  Checkpoints must carry it — recomputing from
  /// the post-kick f reproduces it only to rounding (velocity sweeps
  /// conserve the density moment approximately), which would break
  /// bit-identical restart.
  struct StepForces {
    bool fresh = false;
    mesh::Grid3D<double> nu_ax, nu_ay, nu_az;  // Vlasov-grid accelerations
    std::vector<double> ax, ay, az;            // particle accelerations
  };
  StepForces export_step_forces() const;
  /// Restore a cache exported from an identically configured solver;
  /// returns false (and leaves the cache stale) on shape mismatch.
  bool import_step_forces(const StepForces& forces);

 private:
  void compute_forces(double a);

  vlasov::PhaseSpace f_;
  nbody::Particles cdm_;
  double box_;
  cosmo::Background background_;
  HybridOptions options_;

  gravity::PoissonSolver poisson_;
  mesh::MeshPatch patch_;
  TreePmDerived treepm_derived_;

  mesh::Grid3D<double> rho_cdm_, rho_nu_;
  mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_;  // filtered (for particles)
  mesh::Grid3D<double> gx_nu_, gy_nu_, gz_nu_;     // full (for Vlasov kicks)
  mesh::Grid3D<double> nu_ax_, nu_ay_, nu_az_;     // accel on Vlasov grid
  std::vector<double> ax_, ay_, az_;               // particle accelerations
  bool forces_fresh_ = false;
  bool has_nu_ = false;

  TimerRegistry timers_;
};

}  // namespace v6d::hybrid
