#include "hybrid/hybrid_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "comm/context.hpp"
#include "comm/inproc_transport.hpp"
#include "hybrid/leapfrog.hpp"
#include "io/snapshot.hpp"
#include "mesh/interp.hpp"
#include "parallel/decomp_plan.hpp"
#include "vlasov/brick.hpp"

namespace v6d::hybrid {

namespace {

// Message-tag bases of the plan exchanges, one per exchange kind, so an
// in-flight message of one plan can never be claimed by another.  Face
// plans use base + axis*4 + dir (mesh/halo_plan.hpp).
constexpr int kPsHaloTagBase = 300;    // phase-space faces
constexpr int kGridFillTagBase = 320;  // force-grid ghost fill
constexpr int kFoldCdmTagBase = 340;   // CDM density fold
constexpr int kFoldNuTagBase = 360;    // neutrino density fold
constexpr int kSlabCdmTagBase = 380;   // rho_cdm brick -> slab
constexpr int kSlabNuTagBase = 384;    // rho_nu brick -> slab
constexpr int kSlabOutTagBase = 388;   // force slab -> brick

/// Completes an exchange whose begin was just posted.  Overlapped, the
/// independent `hidden` compute runs while the messages fly and `finish`
/// after it; otherwise `finish` runs first, right after the begin.  Both
/// placements send the same messages and compute the same values.
template <class Hidden, class Finish>
void finish_behind(bool overlap, Hidden&& hidden, Finish&& finish) {
  if (overlap) {
    hidden();
    finish();
  } else {
    finish();
    hidden();
  }
}

/// Inject the 0th velocity moment `rho_v` of `f` (on its spatial grid)
/// into the PM mesh `rho` through `patch`: every Vlasov cell deposits its
/// mass (rho * dvol) at its center with CIC, which reduces to the identity
/// when the two grids coincide.  `rho` is zeroed first; the spill into its
/// ghosts is left for the caller's fold.  Cell centers are global
/// coordinates, so a brick injects into its PM brick the same way.
void inject_nu_density(const vlasov::PhaseSpace& f,
                       const mesh::Grid3D<double>& rho_v,
                       const mesh::MeshPatch& patch,
                       mesh::Grid3D<double>& rho) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  rho.fill(0.0);
  const double cell_mass_factor = g.dvol();
  std::vector<double> px(1), py(1), pz(1);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        px[0] = g.x(ix);
        py[0] = g.y(iy);
        pz[0] = g.z(iz);
        const double mass = rho_v.at(ix, iy, iz) * cell_mass_factor;
        mesh::deposit(rho, patch, px, py, pz, mass, mesh::Assignment::kCic);
      }
}

/// Sample the mesh accelerations (gx, gy, gz; ghosts filled) at the
/// Vlasov cell centers of `f` with CIC: the neutrino kick fields.  Each
/// cell's three values are written by one thread and depend only on reads
/// of the meshes, so any thread count gives the same fields.
void sample_nu_accelerations(const vlasov::PhaseSpace& f,
                             const mesh::Grid3D<double>& gx,
                             const mesh::Grid3D<double>& gy,
                             const mesh::Grid3D<double>& gz,
                             const mesh::MeshPatch& patch,
                             mesh::Grid3D<double>& ax,
                             mesh::Grid3D<double>& ay,
                             mesh::Grid3D<double>& az) {
  const auto& d = f.dims();
  const auto& g = f.geom();
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const double x = g.x(ix), y = g.y(iy), z = g.z(iz);
        ax.at(ix, iy, iz) =
            mesh::interpolate(gx, patch, x, y, z, mesh::Assignment::kCic);
        ay.at(ix, iy, iz) =
            mesh::interpolate(gy, patch, x, y, z, mesh::Assignment::kCic);
        az.at(ix, iy, iz) =
            mesh::interpolate(gz, patch, x, y, z, mesh::Assignment::kCic);
      }
}

}  // namespace

TreePmDerived TreePmDerived::from(const HybridOptions& options, double box) {
  TreePmDerived d;
  const double h = box / options.pm_grid;
  d.rs = options.treepm.rs_cells * h;
  d.rcut = options.treepm.rcut_over_rs * d.rs;
  d.eps = options.treepm.eps_cells * h;
  d.poly = gravity::CutoffPoly(options.treepm.rcut_over_rs / 2.0,
                               options.treepm.cutoff_poly_degree);
  return d;
}

void add_tree_accelerations(const nbody::Particles& cdm,
                            const nbody::Particles& at, double box,
                            const HybridOptions& options,
                            const TreePmDerived& derived, double prefactor,
                            std::span<const std::size_t> targets,
                            std::vector<double>& ax, std::vector<double>& ay,
                            std::vector<double>& az) {
  if (!options.enable_tree || targets.empty()) return;
  const double g_pair = prefactor / (4.0 * M_PI);
  gravity::BarnesHutTree tree(cdm, box, options.treepm.leaf_size);
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  const std::size_t n = targets.size();
  std::vector<double> px(n), py(n), pz(n);
  for (std::size_t k = 0; k < n; ++k) {
    px[k] = at.x[targets[k]];
    py[k] = at.y[targets[k]];
    pz[k] = at.z[targets[k]];
  }
  std::vector<double> tx(n, 0.0), ty(n, 0.0), tz(n, 0.0);
  tree.accumulate(px.data(), py.data(), pz.data(), n, params, derived.poly,
                  options.treepm.theta, options.treepm.use_simd, tx.data(),
                  ty.data(), tz.data());
  for (std::size_t k = 0; k < n; ++k) {
    ax[targets[k]] += g_pair * tx[k];
    ay[targets[k]] += g_pair * ty[k];
    az[targets[k]] += g_pair * tz[k];
  }
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

double cfl_limited_step(double a0, double da_max, double cfl,
                        const std::function<double(double)>& max_shift) {
  double a1 = a0 + da_max;
  for (int it = 0; it < 20; ++it) {
    const double shift = max_shift(a1);
    if (shift <= cfl) break;
    // Shift is nearly linear in (a1 - a0): rescale and re-check.
    const double scale = cfl / shift;
    a1 = a0 + (a1 - a0) * std::min(0.95, scale);
  }
  return a1;
}

/// The single-rank in-process world a scenario-built solver runs over.
struct HybridSolver::World {
  comm::Context context{1};
  comm::InProcTransport transport{&context, 0};
  comm::Communicator communicator{transport};
};

HybridSolver::HybridSolver(vlasov::PhaseSpace f, nbody::Particles cdm,
                           double box, const cosmo::Background& background,
                           const HybridOptions& options)
    : HybridSolver(std::make_unique<World>(), nullptr, f.dims(), box,
                   background, options, {1, 1, 1}, /*overlap=*/true) {
  // At world 1 the brick is the whole phase space: take it over, no copy.
  f_ = std::move(f);
  cdm_ = std::move(cdm);
}

HybridSolver::HybridSolver(const HybridSolver& global,
                           comm::Communicator& comm,
                           std::array<int, 3> decomp, bool overlap)
    : HybridSolver(nullptr, &comm, global.f_.dims(), global.box_,
                   global.background_, global.options_, decomp, overlap) {
  if (global.comm_.size() != 1)
    throw std::invalid_argument(
        "HybridSolver: only a world-1 solver can be sliced into ranks");
  if (has_nu_)
    f_ = vlasov::extract_brick(
        global.f_, {dec_.offset(0), dec_.offset(1), dec_.offset(2)},
        {dec_.local_n(0), dec_.local_n(1), dec_.local_n(2)});
  cdm_ = global.cdm_;
  owe_kick(global.forces_.owed_kick, global.forces_.a);
}

HybridSolver::HybridSolver(std::unique_ptr<World> world,
                           comm::Communicator* comm,
                           const vlasov::PhaseSpaceDims& global_dims,
                           double box, const cosmo::Background& background,
                           const HybridOptions& options,
                           std::array<int, 3> decomp, bool overlap)
    : world_(std::move(world)),
      comm_(comm ? *comm : world_->communicator),
      cart_(comm_, decomp),
      pfft_(comm_, options.pm_grid),
      box_(box),
      background_(background),
      options_(options),
      has_nu_(global_dims.total_interior() > 0),
      overlap_(overlap) {
  const auto& gd = global_dims;
  parallel::DecompConstraints constraints;
  if (has_nu_) constraints.vlasov = {gd.nx, gd.ny, gd.nz};
  constraints.pm_grid = options_.pm_grid;
  constraints.vlasov_ghost = vlasov::kStencilGhost;
  parallel::validate_decomp(decomp, comm_.size(), constraints);

  dec_ = mesh::BrickDecomposition({gd.nx, gd.ny, gd.nz}, decomp,
                                  cart_.coords());
  pm_dec_ = mesh::BrickDecomposition(
      {options_.pm_grid, options_.pm_grid, options_.pm_grid}, decomp,
      cart_.coords());

  patch_.box = box_;
  patch_.n_global = options_.pm_grid;
  for (int a = 0; a < 3; ++a) patch_.offset[a] = pm_dec_.offset(a);

  treepm_derived_ = TreePmDerived::from(options_, box_);

  const int lx = pm_dec_.local_n(0), ly = pm_dec_.local_n(1),
            lz = pm_dec_.local_n(2);
  rho_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  rho_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gx_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gy_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gz_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gx_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gy_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gz_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  forces_.nu_ax = mesh::Grid3D<double>(dec_.local_n(0), dec_.local_n(1),
                                       dec_.local_n(2));
  forces_.nu_ay = forces_.nu_ax;
  forces_.nu_az = forces_.nu_ax;
  if (has_nu_) {
    vlasov::PhaseSpaceDims local = gd;
    local.nx = dec_.local_n(0);
    local.ny = dec_.local_n(1);
    local.nz = dec_.local_n(2);
    rho_v_ = mesh::Grid3D<double>(local.nx, local.ny, local.nz);
    ps_plan_ = mesh::HaloPlan(cart_, local, kPsHaloTagBase);
  }

  fill_ = mesh::GridFillPlan(cart_, gx_cdm_, kGridFillTagBase);
  fold_cdm_ = mesh::GridFoldPlan(cart_, rho_cdm_, kFoldCdmTagBase);
  fold_nu_ = mesh::GridFoldPlan(cart_, rho_nu_, kFoldNuTagBase);
  slab_cdm_x_ =
      parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabCdmTagBase);
  if (has_nu_)
    slab_nu_x_ =
        parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabNuTagBase);
  slab_out_ = parallel::SlabExchange(pm_dec_, pfft_, cart_, kSlabOutTagBase);
}

HybridSolver::~HybridSolver() = default;

bool HybridSolver::owns_particle(std::size_t i) const {
  // Ownership by the containing PM cell: a disjoint, exhaustive split of
  // the replicated particle set.  Both the deposit and the force gather
  // must use exactly this rule or allreduce-summed contributions would be
  // dropped or doubled.
  const int n = options_.pm_grid;
  const double inv_h = n / box_;
  const double pos[3] = {cdm_.x[i], cdm_.y[i], cdm_.z[i]};
  for (int axis = 0; axis < 3; ++axis) {
    double c = pos[axis] * inv_h;
    c -= n * std::floor(c / n);
    const int cell = std::min(n - 1, static_cast<int>(std::floor(c)));
    if (cell < pm_dec_.offset(axis) ||
        cell >= pm_dec_.offset(axis) + pm_dec_.local_n(axis))
      return false;
  }
  return true;
}

void HybridSolver::deposit_cdm_local() {
  ScopedTimer region("deposit");
  rho_cdm_.fill(0.0);
  // Particles are replicated; each rank deposits only the ones it owns
  // (owned_ is refreshed once per force assembly), spilling CIC weight
  // into ghosts that the fold hands to the owning neighbor.
  std::vector<double> px, py, pz;
  px.reserve(owned_.size());
  py.reserve(owned_.size());
  pz.reserve(owned_.size());
  for (const std::size_t i : owned_) {
    px.push_back(cdm_.x[i]);
    py.push_back(cdm_.y[i]);
    pz.push_back(cdm_.z[i]);
  }
  mesh::deposit(rho_cdm_, patch_, px, py, pz, cdm_.mass,
                mesh::Assignment::kCic);
}

void HybridSolver::prepare_green_tables(
    bool has_cdm, const gravity::PoissonOptions& cdm_long,
    const gravity::PoissonOptions& cdm_short,
    const gravity::PoissonOptions& nu_opts) {
  // Per-mode Green x window multipliers in for_each_mode order.  The
  // tables hold exactly the doubles the inline evaluation would produce,
  // so using them changes nothing numerically — it only moves the
  // transcendental-heavy loop off the communication's critical path (the
  // overlapped placement computes them while the brick -> slab messages
  // fly).  Only the tables a force set reads are filled: the CDM ones
  // need particles, the short and nu ones neutrinos.
  const int n = options_.pm_grid;
  const int lny = pfft_.local_ny();
  const std::size_t modes = static_cast<std::size_t>(lny) * n * n;
  if (has_cdm) green_long_.resize(modes);
  if (has_cdm && has_nu_) green_short_.resize(modes);
  if (has_nu_) green_nu_.resize(modes);
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int y = 0; y < lny; ++y)
    for (int x = 0; x < n; ++x) {
      const int by = pfft_.y_offset() + y;
      std::size_t m = (static_cast<std::size_t>(y) * n + x) * n;
      for (int z = 0; z < n; ++z, ++m) {
        if (has_cdm) {
          green_long_[m] = gravity::green_times_window(
              x, by, z, n, n, n, box_, box_, box_, cdm_long);
          if (has_nu_)
            green_short_[m] = gravity::green_times_window(
                x, by, z, n, n, n, box_, box_, box_, cdm_short);
        }
        if (has_nu_)
          green_nu_[m] = gravity::green_times_window(x, by, z, n, n, n, box_,
                                                     box_, box_, nu_opts);
      }
    }
}

void HybridSolver::compute_forces(double a) {
  const double prefactor = poisson_prefactor(a);
  const int n = options_.pm_grid;
  // The CDM density and force set (a) feed only the particles.  Without
  // any (the set is replicated, so every rank agrees) their deposit, fold,
  // redistribution, transforms and Green tables are skipped.
  const bool has_cdm = cdm_.size() > 0;

  // Ownership split of the replicated particle set, computed once per
  // force assembly (positions are fixed between the deposit and the
  // gather below).
  owned_.clear();
  for (std::size_t i = 0; i < cdm_.size(); ++i)
    if (owns_particle(i)) owned_.push_back(i);

  gravity::PoissonOptions cdm_opts;
  cdm_opts.prefactor = prefactor;
  cdm_opts.deconvolve_order = 2;  // CIC
  cdm_opts.green = gravity::GreenFunction::kExactK2;
  gravity::PoissonOptions cdm_long = cdm_opts;
  cdm_long.longrange_split_rs = options_.enable_tree ? treepm_derived_.rs : 0.0;
  // No deconvolution for the neutrinos: the moment field was injected,
  // not particle-deposited.
  gravity::PoissonOptions nu_opts;
  nu_opts.prefactor = prefactor;
  nu_opts.deconvolve_order = 0;

  // --- densities (deposit + ghost fold), bricks -> x-slabs ---
  // Every fold/slab exchange completes through finish_behind, which sets
  // its finish after the compute named as hiding it (overlap) or right
  // after its begin.
  if (has_cdm) {
    ScopedTimer t(timers_, "pm");
    deposit_cdm_local();
    fold_cdm_.begin(rho_cdm_);
  }
  // The CDM ghost fold flies during the (heavy, local) Vlasov moment: it
  // reduces the full velocity cube per spatial cell.
  finish_behind(
      overlap_,
      [&] {
        if (!has_nu_) return;
        ScopedTimer t(timers_, "vlasov-moments");
        vlasov::compute_density(f_, rho_v_);
      },
      [&] {
        if (!has_cdm) return;
        ScopedTimer t(timers_, "pm");
        fold_cdm_.finish(rho_cdm_);
      });
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov-moments");
    ScopedTimer region("deposit");
    inject_nu_density(f_, rho_v_, patch_, rho_nu_);
  }

  {
    ScopedTimer t(timers_, "pm");
    if (has_nu_) fold_nu_.begin(rho_nu_);
    // The nu fold and the CDM redistribution fly during the Green-function
    // tables; the nu redistribution flies during the CDM forward
    // transform.
    std::vector<fft::cplx>* slab_cdm = nullptr;
    std::vector<fft::cplx>* slab_nu = nullptr;
    auto forward = [&](std::vector<fft::cplx>& slab) {
      ScopedTimer region("fft-forward");
      pfft_.forward(slab);
    };
    finish_behind(
        overlap_,
        [&] {
          if (has_cdm) slab_cdm_x_.begin_to_slab(rho_cdm_);
          finish_behind(
              overlap_,
              [&] {
                prepare_green_tables(has_cdm, cdm_long, cdm_opts, nu_opts);
              },
              [&] {
                if (has_cdm) slab_cdm = &slab_cdm_x_.finish_to_slab();
              });
        },
        [&] {
          if (has_nu_) fold_nu_.finish(rho_nu_);
        });
    if (has_nu_) {
      slab_nu_x_.begin_to_slab(rho_nu_);
      finish_behind(
          overlap_,
          [&] {
            if (has_cdm) forward(*slab_cdm);
          },
          [&] { slab_nu = &slab_nu_x_.finish_to_slab(); });
      forward(*slab_nu);
    } else if (has_cdm) {
      forward(*slab_cdm);
    }

    // One force set = the combined potential of both species under the
    // given CDM green table, differentiated spectrally (-i k_d) and
    // brought back to brick layout per component.  phi_k is evaluated once
    // per mode; only the cheap -i k_d multiply runs per direction.  Each
    // component's slab -> brick return flies during the next component's
    // spectral multiply + inverse FFT.  Without particles the sum starts
    // from (0, 0) in place of the CDM term.  The signs of exact zeros in
    // phi_ may then differ from a pass that computes that term, but they
    // never reach the forces: every stage of the inverse transform starts
    // its sums from +0.
    auto solve_set = [&](const std::vector<double>& green,
                         mesh::Grid3D<double>& gx, mesh::Grid3D<double>& gy,
                         mesh::Grid3D<double>& gz) {
      phi_.resize((has_cdm ? slab_cdm : slab_nu)->size());
      for (std::size_t m = 0; m < phi_.size(); ++m) {
        fft::cplx phi_k = has_cdm ? (*slab_cdm)[m] * green[m]
                                  : fft::cplx(0.0, 0.0);
        if (has_nu_) phi_k += (*slab_nu)[m] * green_nu_[m];
        phi_[m] = phi_k;
      }
      auto component = [&](int d) {
        spec_.resize(phi_.size());
        std::size_t m = 0;
        pfft_.for_each_mode(spec_, [&](int bx, int by, int bz, fft::cplx& s) {
          const int bin = d == 0 ? bx : d == 1 ? by : bz;
          const double k_d = gravity::fft_wavenumber(bin, n, box_);
          s = fft::cplx(0.0, -1.0) * k_d * phi_[m];
          ++m;
        });
        ScopedTimer region("fft-inverse");
        pfft_.inverse_normalized(spec_);
      };
      mesh::Grid3D<double>* outs[3] = {&gx, &gy, &gz};
      component(0);
      for (int d = 0; d < 3; ++d) {
        slab_out_.begin_to_brick(spec_);
        finish_behind(
            overlap_,
            [&] {
              if (d < 2) component(d + 1);
            },
            [&] {
              slab_out_.finish_to_brick(*outs[d]);
              fill_.begin(*outs[d]);
              fill_.finish(*outs[d]);
            });
      }
    };
    // (a) the long-range-filtered field, which feeds only the particles;
    // (b) the full field, which feeds only the Vlasov kicks.
    if (has_cdm) solve_set(green_long_, gx_cdm_, gy_cdm_, gz_cdm_);
    if (has_nu_) solve_set(green_short_, gx_nu_, gy_nu_, gz_nu_);

    // Particle long-range gather: each rank interpolates at the particles
    // its brick owns (the same split as the deposit); every other entry
    // stays 0 until the allreduce below.
    forces_.ax.assign(cdm_.size(), 0.0);
    forces_.ay.assign(cdm_.size(), 0.0);
    forces_.az.assign(cdm_.size(), 0.0);
    for (const std::size_t i : owned_) {
      forces_.ax[i] = mesh::interpolate(gx_cdm_, patch_, cdm_.x[i],
                                        cdm_.y[i], cdm_.z[i],
                                        mesh::Assignment::kCic);
      forces_.ay[i] = mesh::interpolate(gy_cdm_, patch_, cdm_.x[i],
                                        cdm_.y[i], cdm_.z[i],
                                        mesh::Assignment::kCic);
      forces_.az[i] = mesh::interpolate(gz_cdm_, patch_, cdm_.x[i],
                                        cdm_.y[i], cdm_.z[i],
                                        mesh::Assignment::kCic);
    }

    // Vlasov-grid acceleration sampling on the local brick.
    if (has_nu_)
      sample_nu_accelerations(f_, gx_nu_, gy_nu_, gz_nu_, patch_,
                              forces_.nu_ax, forces_.nu_ay, forces_.nu_az);
  }

  // --- tree short-range at the owned particles: every rank builds the
  //     same tree over the replicated set, so a target's force does not
  //     depend on which rank walks it ---
  if (options_.enable_tree && cdm_.size() > 0) {
    ScopedTimer t(timers_, "tree");
    add_tree_accelerations(cdm_, cdm_, box_, options_, treepm_derived_,
                           prefactor, owned_, forces_.ax, forces_.ay,
                           forces_.az);
  }
  // Each particle's owner holds PM + tree, every other rank 0; the ordered
  // sum from 0 yields exactly allreduce(PM) + tree on every rank.
  if (cdm_.size() > 0) {
    ScopedTimer t(timers_, "pm");
    comm_.allreduce_sum(forces_.ax.data(), forces_.ax.size());
    comm_.allreduce_sum(forces_.ay.data(), forces_.ay.size());
    comm_.allreduce_sum(forces_.az.data(), forces_.az.size());
  }
  forces_.fresh = true;
  forces_.a = a;
}

void HybridSolver::drift(double drift_factor) {
  // The drift loop with the single-axis face exchange as its ghost
  // filler: a position sweep along one axis reads only that axis' ghosts
  // at interior transverse positions, so each sweep needs one face pair,
  // not a transitively extended 3-axis halo.
  ScopedTimer region("drift");
  vlasov::drift_full(f_, drift_factor, options_.kernel,
                     [this](vlasov::PhaseSpace& f, int axis) {
                       ScopedTimer t(timers_, "halo");
                       ps_plan_.begin_axis(f, axis);
                       return ps_plan_.finish_axis(axis);
                     });
}

void HybridSolver::kick(double kick_factor) {
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    ScopedTimer region("kick");
    vlasov::kick_half(f_, forces_.nu_ax, forces_.nu_ay, forces_.nu_az,
                      kick_factor, options_.kernel);
  }
  nbody::kick(cdm_, forces_.ax, forces_.ay, forces_.az, kick_factor);
}

void HybridSolver::step(double a0, double a1) {
  leapfrog_step(
      background_, a0, a1, forces_.fresh, forces_.owed_kick,
      [this](double k) { kick(k); },
      [this](double d) {
        if (has_nu_) {
          ScopedTimer t(timers_, "vlasov");
          drift(d);
        }
        nbody::drift(cdm_, d, box_);
      },
      [this](double a) { compute_forces(a); });
}

void HybridSolver::synchronize() {
  // The owed factor is the same on every rank, so either every rank runs
  // this force pass or none does.
  if (forces_.owed_kick != 0.0 && !forces_.fresh) compute_forces(forces_.a);
  settle_owed_kick(forces_.owed_kick, [this](double k) { kick(k); });
}

void HybridSolver::owe_kick(double owed_kick, double a) {
  forces_.fresh = false;
  forces_.a = a;
  forces_.owed_kick = owed_kick;
}

double HybridSolver::suggest_next_a(double a0, double da_max) {
  if (!has_nu_) return a0 + da_max;
  // The local shift bound is geometry-only today, but the allreduce keeps
  // every rank's decision identical by construction even if it becomes
  // state-dependent.
  return cfl_limited_step(a0, da_max, options_.cfl, [&](double a1) {
    return comm_.allreduce_max(
        vlasov::max_position_shift(f_, background_.drift_factor(a0, a1)));
  });
}

double HybridSolver::total_mass() const {
  double mass = comm_.allreduce_sum(has_nu_ ? f_.total_mass() : 0.0);
  mass += cdm_.mass * static_cast<double>(cdm_.size());
  return mass;
}

void HybridSolver::gather_into(HybridSolver& global) {
  if (has_nu_ && comm_.rank() == 0) {
    // Every brick, rank 0's own included, goes through one checked
    // placement; the others arrive in the shard encoding and are placed
    // straight from the message.
    vlasov::BrickPlacement placement(global.neutrinos());
    std::string why;
    const auto place = [&](int r, const vlasov::BrickView& brick) {
      if (!placement.place(brick, &why))
        throw std::runtime_error("gather_into: rank " + std::to_string(r) +
                                 "'s brick " + why);
    };
    place(0, vlasov::view(f_));
    for (int r = 1; r < comm_.size(); ++r) {
      const auto message = comm_.recv_bytes(r, kGatherTag);
      vlasov::BrickView brick;
      const auto status = io::decode_phase_space(message, brick);
      if (status != io::SnapshotStatus::kOk)
        throw std::runtime_error("gather_into: rank " + std::to_string(r) +
                                 "'s brick message is unreadable (" +
                                 io::to_string(status) + ")");
      place(r, brick);
    }
    if (!placement.complete(&why))
      throw std::runtime_error("gather_into: the ranks' bricks " + why);
  } else if (has_nu_) {
    comm_.send(0, kGatherTag, io::encode_phase_space(f_));
  }
  if (comm_.rank() == 0) {
    global.cdm_ = cdm_;
    global.owe_kick(forces_.owed_kick, forces_.a);
  }
  comm_.barrier();
}

}  // namespace v6d::hybrid
