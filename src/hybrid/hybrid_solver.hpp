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
// drift/kick factors from the background integrator.  A step kicks once:
// the trailing half-kick of Eq. (5) uses the same forces as the next
// step's leading one, so it is owed to that kick (hybrid/leapfrog.hpp)
// and synchronize() applies it when velocities are read.
//
// Execution model (§5.1.3): one solver runs at every world size.  Each rank
// owns one brick of the Vlasov spatial grid (velocity space is never
// decomposed) plus the matching brick of the PM mesh, with the
// communication seams the paper describes:
//
//   * position sweeps read neighbor bricks through the spatial halo
//     (the dominant Vlasov communication);
//   * density deposits spill into ghost cells and are folded onto the
//     owning neighbor;
//   * the Poisson solve runs on the distributed FFT
//     (fft::ParallelFft3D) after a brick -> x-slab redistribution
//     (parallel/field_exchange.hpp);
//   * the CFL step search and the conservation diagnostics are
//     allreduce-d so every rank takes identical steps.
//
// A scenario-built solver is the world-1 case: it runs over a single-rank
// in-process communicator it owns, where no halo, fold or fill plan sends
// a message (the brick -> slab plan and the FFT transposes still send
// their blocks to the rank itself).  The slicing constructor builds one
// rank's share of such a solver for a comm::run (or TCP) world;
// gather_into() writes the evolved state back.
//
// Every exchange goes through a plan object (mesh::HaloPlan,
// mesh::GridFillPlan, mesh::GridFoldPlan, parallel::SlabExchange) with
// begin/finish halves.  Position sweeps take a single-axis face exchange
// before each sweep (HaloPlan, handed to vlasov::drift_full as its
// axis-aware HaloFiller); the CDM ghost fold can fly during the Vlasov
// moment accumulation, the brick -> x-slab FFT redistribution during
// Green-function table prep, and each force component's slab -> brick
// return during the next component's spectral work.
//
// The `overlap` flag (`overlap=` config key) only moves where each fold or
// slab plan's finish sits: overlapped (default), after the compute it hides
// behind — the paper's central scaling technique; otherwise right after
// its begin.  Both modes send the same messages and compute every field
// with the same floating-point operations, so they are bit-identical
// (tests/test_parallel.cpp asserts exact equality and equal per-rank
// traffic).
//
// Every phase is a timed region in timers(): `vlasov` (its `kick` and
// `drift`, the drift's `halo` with the plan's `halo-*` regions),
// `vlasov-moments`, `pm` (`deposit`, the fold and slab plans' `*-begin` /
// `*-finish` / `*-wait`, the fill's `fill-wait`, `fft-forward` /
// `fft-inverse`) and `tree`.  The plans open their regions without a
// registry, so they land in the record of the solver region around them.
// The `*-wait` regions are the exposed (un-hidden) communication time,
// which bench/table3 turns into the halo_overlap_efficiency metric.
//
// Deliberate deviation from the paper, documented in docs/ARCHITECTURE.md:
// CDM particle *storage* is replicated on every rank, and so is the
// Barnes-Hut tree build over it.  The work is split: each rank deposits,
// gathers PM forces and walks the tree only at the particles in its PM
// brick, and one allreduce per component assembles the full acceleration
// arrays.  The paper's headline scaling axis is the Vlasov part; a
// particle-exchange layer (migration, ghost import, per-rank trees) can
// land on this seam later without touching the Vlasov side.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/cart.hpp"
#include "common/timer.hpp"
#include "cosmology/background.hpp"
#include "fft/parallel_fft.hpp"
#include "gravity/poisson.hpp"
#include "gravity/pp_kernel.hpp"
#include "gravity/tree.hpp"
#include "gravity/treepm.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/deposit.hpp"
#include "mesh/halo_plan.hpp"
#include "nbody/integrator.hpp"
#include "parallel/field_exchange.hpp"
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
/// spacing.  Shared by HybridSolver and NBodySolver so the split numerics
/// cannot drift apart.
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
/// No-op when the tree is disabled or `targets` is empty.  HybridSolver
/// walks the CDM particles its rank owns, NBodySolver every CDM particle
/// and its hot species: both call this same block.
void add_tree_accelerations(const nbody::Particles& cdm,
                            const nbody::Particles& at, double box,
                            const HybridOptions& options,
                            const TreePmDerived& derived, double prefactor,
                            std::span<const std::size_t> targets,
                            std::vector<double>& ax, std::vector<double>& ay,
                            std::vector<double>& az);

/// Every index of a set of `n` particles (the full target list).
std::vector<std::size_t> all_indices(std::size_t n);

/// CFL-limited step search: the largest a1 <= a0 + da_max with
/// max_shift(a1) <= cfl, via the shared backoff iteration.  `max_shift`
/// supplies the position-sweep bound.
double cfl_limited_step(double a0, double da_max, double cfl,
                        const std::function<double(double)>& max_shift);

class HybridSolver {
 public:
  /// World-1 solver over a single-rank in-process communicator the solver
  /// owns.  Takes ownership of the phase space (moved in, never copied;
  /// may have zero-size dims if the run is CDM-only) and the particle set.
  HybridSolver(vlasov::PhaseSpace f, nbody::Particles cdm, double box,
               const cosmo::Background& background,
               const HybridOptions& options);

  /// One rank's share of the world-1 solver `global`: its brick of f and
  /// of the PM mesh, the replicated particles, and the kick the velocities
  /// owe with the scale factor it falls due at.  `global`'s forces stay
  /// behind: the first step() or synchronize() computes this rank's from
  /// its own state.  `global` is only read — every rank thread of a world
  /// may run this at once — and no collective runs on its communicator.
  /// `decomp` must multiply to comm.size() and satisfy
  /// parallel::validate_decomp.  `overlap` places each fold and slab
  /// exchange's finish after the compute it hides behind (default on)
  /// instead of right after its begin; the results are bit-identical.
  HybridSolver(const HybridSolver& global, comm::Communicator& comm,
               std::array<int, 3> decomp, bool overlap = true);

  ~HybridSolver();
  // The exchange plans point into the topology, communicator and FFT the
  // solver holds, so it stays where it was built.
  HybridSolver(const HybridSolver&) = delete;
  HybridSolver& operator=(const HybridSolver&) = delete;

  /// This rank's brick of f (the whole phase space at world 1).
  vlasov::PhaseSpace& neutrinos() { return f_; }
  const vlasov::PhaseSpace& neutrinos() const { return f_; }
  /// Second name of neutrinos(), kept for perfbench/harness.cpp.
  vlasov::PhaseSpace& local_f() { return f_; }
  const vlasov::PhaseSpace& local_f() const { return f_; }
  /// The particles, replicated on every rank.
  nbody::Particles& cdm() { return cdm_; }
  const nbody::Particles& cdm() const { return cdm_; }

  const HybridOptions& options() const { return options_; }
  const cosmo::Background& background() const { return background_; }
  double box() const { return box_; }
  bool has_neutrinos() const { return has_nu_; }
  const mesh::BrickDecomposition& decomposition() const { return dec_; }
  /// The communicator the solver steps over (its own at world 1).
  comm::Communicator& communicator() { return comm_; }

  /// One step from scale factor a0 to a1 (collective; every rank must
  /// take the same interval — use suggest_next_a): one kick on the cached
  /// forces by the owed factor plus kick_factor(a0, a_mid), the drift, the
  /// force pass at a1, and kick_factor(a_mid, a1) recorded as owed.  The
  /// velocities (of f and of the particles) then lag the positions by that
  /// half-kick until the next step or synchronize(); mass and density do
  /// not depend on it.
  void step(double a0, double a1);

  /// Apply the owed half-kick and zero it, so that velocities and
  /// positions are at the same time.  Collective when a kick is owed on
  /// forces this rank does not hold (a sliced, gathered-into or resumed
  /// solver before its first step): it computes them from its state at
  /// the owed kick's scale factor first.  Every rank of a world calls it,
  /// or the bricks and the replicated particles part ways.  A no-op on a
  /// fresh or already synchronized solver.  Call it before reading
  /// velocities after step(); Driver::run() calls it after its last
  /// checkpoint, so a run's output is synchronized.
  void synchronize();

  /// Largest a1 <= a0 + da_max keeping every position sweep under the CFL
  /// bound; the shift bound is allreduce-d, so every rank gets the same a1
  /// (collective).
  double suggest_next_a(double a0, double da_max);

  /// Total mass (CDM + neutrino) in critical-density units, summed over
  /// the world (conservation diagnostics; collective).
  double total_mass() const;

  /// This rank's PM bricks of the neutrino and CDM densities (refreshed by
  /// the last force pass).
  const mesh::Grid3D<double>& nu_density() const { return rho_nu_; }
  const mesh::Grid3D<double>& cdm_density() const { return rho_cdm_; }

  /// The record of this rank's timed regions (common/timer.hpp); a caller
  /// that opens a region here around step() gets the solver's nested in it.
  TimerRegistry& timers() { return timers_; }
  static double poisson_prefactor(double a) { return 1.5 / a; }

  /// The step-boundary state on this rank: accelerations computed from
  /// the post-drift state at scale factor `a` at the end of the last step,
  /// and the kick factor the velocities owe on them (the last step's
  /// trailing half-kick).  The next step's kick, or synchronize(), applies
  /// the owed factor.  The cache is a function of the state and `a`, so
  /// it never leaves the rank: the slicing constructor, gather_into and a
  /// checkpoint carry only `owed_kick` and `a`, and the solver that takes
  /// them over recomputes the forces (`fresh` false) before it kicks.
  struct StepForces {
    bool fresh = false;
    double a = 0.0;          // scale factor of the forces and the owed kick
    double owed_kick = 0.0;  // kick factor owed on these forces
    mesh::Grid3D<double> nu_ax, nu_ay, nu_az;  // Vlasov-grid accelerations
    std::vector<double> ax, ay, az;            // particle accelerations
  };
  /// This rank's cache (no message is sent).
  const StepForces& step_forces() const { return forces_; }
  /// Take over a step boundary whose forces this solver does not hold
  /// (a checkpoint's): the velocities owe `owed_kick` on the forces at
  /// scale factor `a`, which the next step() or synchronize() computes
  /// from the state.
  void owe_kick(double owed_kick, double a);

  /// Write the evolved state back into rank 0's world-1 solver `global`
  /// (collective): every other rank sends its f brick to rank 0 as one
  /// kGatherTag message in the shard encoding; rank 0 places every brick
  /// through one vlasov::BrickPlacement, refusing (std::runtime_error) a
  /// set that is not an exact tiling, and restores the particles and the
  /// owed kick with its scale factor (owe_kick), which it does not apply.
  /// Thread ranks and process ranks run this same path; only rank 0
  /// touches `global`, so thread ranks may share one.
  void gather_into(HybridSolver& global);
  static constexpr int kGatherTag = 0x6a7;

 private:
  struct World;

  HybridSolver(std::unique_ptr<World> world, comm::Communicator* comm,
               const vlasov::PhaseSpaceDims& global_dims, double box,
               const cosmo::Background& background,
               const HybridOptions& options, std::array<int, 3> decomp,
               bool overlap);

  void compute_forces(double a);
  void kick(double kick_factor);
  bool owns_particle(std::size_t i) const;
  void deposit_cdm_local();
  void prepare_green_tables(bool has_cdm,
                            const gravity::PoissonOptions& cdm_long,
                            const gravity::PoissonOptions& cdm_short,
                            const gravity::PoissonOptions& nu_opts);
  void drift(double drift_factor);

  std::unique_ptr<World> world_;  // the owned communicator at world 1
  comm::Communicator& comm_;
  comm::CartTopology cart_;
  mesh::BrickDecomposition dec_;     // Vlasov spatial grid bricks
  mesh::BrickDecomposition pm_dec_;  // PM mesh bricks
  fft::ParallelFft3D pfft_;

  vlasov::PhaseSpace f_;   // local brick (interior blocks only)
  nbody::Particles cdm_;   // replicated; work split by owned_
  double box_;
  cosmo::Background background_;
  HybridOptions options_;
  bool has_nu_ = false;
  bool overlap_ = true;

  mesh::MeshPatch patch_;  // local PM brick in global coordinates
  TreePmDerived treepm_derived_;

  mesh::Grid3D<double> rho_cdm_, rho_nu_;          // local PM bricks
  mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_;  // filtered (particles)
  mesh::Grid3D<double> gx_nu_, gy_nu_, gz_nu_;     // full (Vlasov kicks)
  mesh::Grid3D<double> rho_v_;                     // nu moment scratch
  StepForces forces_;  // the local brick's step boundary
  std::vector<std::size_t> owned_;  // particles in this PM brick: the
                                    // deposit, gather and tree-walk split,
                                    // refreshed once per force assembly

  // Exchange plans: precomputed ranges and receive handles; every message
  // is packed into, and read from, its own payload.
  mesh::HaloPlan ps_plan_;                       // phase-space axis faces
  mesh::GridFillPlan fill_;                      // force-grid ghost fill
  mesh::GridFoldPlan fold_cdm_, fold_nu_;        // deposit ghost folds
  parallel::SlabExchange slab_cdm_x_, slab_nu_x_;  // brick -> slab
  parallel::SlabExchange slab_out_;              // slab -> brick (forces)
  std::vector<double> green_long_, green_short_, green_nu_;  // mode tables
  std::vector<fft::cplx> phi_, spec_;

  TimerRegistry timers_;
};

}  // namespace v6d::hybrid
