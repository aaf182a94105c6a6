// End-to-end benchmark harness for the hybrid Vlasov / N-body solver.
//
// Drives one workload through the library's public headers the way a
// user's program does: the scenario registry builds the initial
// conditions, HybridSolver (ranks=1) or DistributedHybridSolver under
// comm::run (ranks>1) takes KDK steps, and every time is taken from outside
// those calls.  Prints one JSON line of raw observations (job start, step
// boundaries, work counts, final-state digest); perfbench/run.py turns it
// into metrics and checks the outputs.
//
// Usage:  perfbench_harness key=value ...
//   SimulationConfig keys (scenario, nx, nu, np, seed, da_max, ranks, ...)
//   bench_jobs=J    untraced jobs; each is setup + bench_steps KDK steps
//   bench_steps=N   KDK steps per job, the first one included
//   bench_shift=S   periodic shift of the initial state, in cells
//   bench_trace=1   one untraced job, then one traced job
//
// Traced job: before every step after the first, each rank replays the
// step's public library calls on copies of its state inside in-memory
// spans, so the real trajectory stays bit-identical to an untraced job.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "common/options.hpp"
#include "cosmology/fermi_dirac.hpp"
#include "cosmology/neutrino_ic.hpp"
#include "cosmology/zeldovich.hpp"
#include "driver/distributed.hpp"
#include "driver/scenario.hpp"
#include "gravity/tree.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "mesh/interp.hpp"
#include "nbody/integrator.hpp"
#include "parallel/distributed_solver.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"

using namespace v6d;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// In-memory spans, one log per rank thread.
// ---------------------------------------------------------------------------
struct Span {
  const char* name;
  double t0 = 0.0, t1 = 0.0;
  int parent = -1;
  int step = -1;  // -1: outside the step loop (initial conditions)
};

class SpanLog {
 public:
  void open(const char* name, int step) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, step});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].t1 = now_s();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int step) : log_(log) {
    log_.open(name, step);
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

gravity::PpKernelParams pp_params(const hybrid::TreePmDerived& derived) {
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  return params;
}

// ---------------------------------------------------------------------------
// Traced replay of one KDK step.
//
// Mirrors HybridSolver::step from public calls: the CFL search of
// suggest_next_a, leading kick, drift, one force pass, trailing kick.  On a
// rank of a distributed run it replays the rank's own brick and the
// replicated particles, and its force pass runs on the whole PM mesh: the
// serial solve stands in for the distributed one, whose messages and waits
// the real step's comm counters measure.
// ---------------------------------------------------------------------------
class Replay {
 public:
  Replay(const hybrid::HybridOptions& options, double box,
         const cosmo::Background& background, const vlasov::PhaseSpace& f)
      : options_(options),
        box_(box),
        background_(background),
        derived_(hybrid::TreePmDerived::from(options, box)),
        poisson_(options.pm_grid, box),
        has_nu_(f.dims().total_interior() > 0) {
    const int n = options.pm_grid;
    for (auto* grid : {&rho_cdm_, &rho_nu_, &gx_cdm_, &gy_cdm_, &gz_cdm_,
                       &gx_nu_, &gy_nu_, &gz_nu_, &tx_, &ty_, &tz_})
      *grid = mesh::Grid3D<double>(n, n, n, 2);
    const auto& d = f.dims();
    for (auto* grid : {&rho_v_, &nu_ax_, &nu_ay_, &nu_az_})
      *grid = mesh::Grid3D<double>(d.nx, d.ny, d.nz);
    patch_.box = box;
    patch_.n_global = n;
  }

  /// Replay the step that starts at a0 on copies of (f, cdm), taken before
  /// the step's root span opens.
  void step(const vlasov::PhaseSpace& f, const nbody::Particles& cdm,
            double a0, double da_max, int step, SpanLog& log) {
    f_ = f;
    cdm_ = cdm;
    if (!primed_) {
      // The real step starts from the force cache of the previous one.
      SpanLog scratch;
      forces(a0, -1, scratch);
      tree_p2p_ = tree_nodes_ = tree_passes_ = 0;
      primed_ = true;
    }
    ScopedSpan root(log, "hybrid.step", step);
    double a1 = a0 + da_max;
    {
      ScopedSpan s(log, "vlasov.cfl", step);
      if (has_nu_)
        a1 = hybrid::cfl_limited_step(a0, da_max, options_.cfl, [&](double a) {
          return vlasov::max_position_shift(f_,
                                            background_.drift_factor(a0, a));
        });
    }
    const double a_mid = 0.5 * (a0 + a1);
    kick(background_.kick_factor(a0, a_mid), step, log);
    const double drift = background_.drift_factor(a0, a1);
    {
      ScopedSpan s(log, "vlasov.drift", step);
      if (has_nu_)
        vlasov::drift_full(f_, drift, options_.kernel,
                           vlasov::periodic_halo_filler());
    }
    {
      ScopedSpan s(log, "nbody.kick_drift", step);
      nbody::drift(cdm_, drift, box_);
    }
    forces(a1, step, log);
    kick(background_.kick_factor(a_mid, a1), step, log);
  }

  std::uint64_t tree_p2p() const { return tree_p2p_; }
  std::uint64_t tree_nodes() const { return tree_nodes_; }
  std::uint64_t tree_passes() const { return tree_passes_; }

 private:
  void kick(double dt, int step, SpanLog& log) {
    {
      ScopedSpan s(log, "vlasov.kick", step);
      if (has_nu_)
        vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, dt, options_.kernel);
    }
    ScopedSpan s(log, "nbody.kick_drift", step);
    nbody::kick(cdm_, ax_, ay_, az_, dt);
  }

  // Mirrors HybridSolver::compute_forces.
  void forces(double a, int step, SpanLog& log) {
    ScopedSpan pass(log, "hybrid.forces", step);
    const double prefactor = hybrid::HybridSolver::poisson_prefactor(a);
    const int n = options_.pm_grid;
    {
      ScopedSpan s(log, "mesh.deposit", step);
      rho_cdm_.fill(0.0);
      mesh::deposit(rho_cdm_, patch_, cdm_.x, cdm_.y, cdm_.z, cdm_.mass,
                    mesh::Assignment::kCic);
      rho_cdm_.fold_ghosts_periodic();
    }
    {
      ScopedSpan s(log, "vlasov.moments", step);
      if (has_nu_) vlasov::compute_density(f_, rho_v_);
    }
    if (has_nu_) {
      ScopedSpan s(log, "mesh.deposit", step);
      rho_nu_.fill(0.0);
      const auto& d = f_.dims();
      const auto& g = f_.geom();
      for (int ix = 0; ix < d.nx; ++ix)
        for (int iy = 0; iy < d.ny; ++iy)
          for (int iz = 0; iz < d.nz; ++iz) {
            const double x[1] = {g.x(ix)}, y[1] = {g.y(iy)}, z[1] = {g.z(iz)};
            mesh::deposit(rho_nu_, patch_, x, y, z,
                          rho_v_.at(ix, iy, iz) * g.dvol(),
                          mesh::Assignment::kCic);
          }
      rho_nu_.fold_ghosts_periodic();
    }
    {
      ScopedSpan s(log, "gravity.poisson", step);
      gravity::PoissonOptions cdm_opts;
      cdm_opts.prefactor = prefactor;
      cdm_opts.deconvolve_order = 2;
      cdm_opts.green = gravity::GreenFunction::kExactK2;
      gravity::PoissonOptions cdm_long = cdm_opts;
      cdm_long.longrange_split_rs = options_.enable_tree ? derived_.rs : 0.0;
      poisson_.solve_forces(rho_cdm_, gx_cdm_, gy_cdm_, gz_cdm_, cdm_long);
      poisson_.solve_forces(rho_cdm_, gx_nu_, gy_nu_, gz_nu_, cdm_opts);
      if (has_nu_) {
        gravity::PoissonOptions nu_opts;
        nu_opts.prefactor = prefactor;
        poisson_.solve_forces(rho_nu_, tx_, ty_, tz_, nu_opts);
      }
    }
    if (has_nu_)
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          for (int k = 0; k < n; ++k) {
            gx_cdm_.at(i, j, k) += tx_.at(i, j, k);
            gy_cdm_.at(i, j, k) += ty_.at(i, j, k);
            gz_cdm_.at(i, j, k) += tz_.at(i, j, k);
            gx_nu_.at(i, j, k) += tx_.at(i, j, k);
            gy_nu_.at(i, j, k) += ty_.at(i, j, k);
            gz_nu_.at(i, j, k) += tz_.at(i, j, k);
          }
    {
      ScopedSpan s(log, "mesh.gather", step);
      for (auto* grid :
           {&gx_cdm_, &gy_cdm_, &gz_cdm_, &gx_nu_, &gy_nu_, &gz_nu_})
        grid->fill_ghosts_periodic();
      ax_.assign(cdm_.size(), 0.0);
      ay_.assign(cdm_.size(), 0.0);
      az_.assign(cdm_.size(), 0.0);
      mesh::gather_forces(gx_cdm_, gy_cdm_, gz_cdm_, patch_, cdm_.x, cdm_.y,
                          cdm_.z, ax_, ay_, az_, mesh::Assignment::kCic);
      if (has_nu_) {
        const auto& d = f_.dims();
        const auto& g = f_.geom();
        for (int ix = 0; ix < d.nx; ++ix)
          for (int iy = 0; iy < d.ny; ++iy)
            for (int iz = 0; iz < d.nz; ++iz) {
              const double x = g.x(ix), y = g.y(iy), z = g.z(iz);
              nu_ax_.at(ix, iy, iz) = mesh::interpolate(
                  gx_nu_, patch_, x, y, z, mesh::Assignment::kCic);
              nu_ay_.at(ix, iy, iz) = mesh::interpolate(
                  gy_nu_, patch_, x, y, z, mesh::Assignment::kCic);
              nu_az_.at(ix, iy, iz) = mesh::interpolate(
                  gz_nu_, patch_, x, y, z, mesh::Assignment::kCic);
            }
      }
    }
    const bool tree_on = options_.enable_tree && cdm_.size() > 0;
    std::unique_ptr<gravity::BarnesHutTree> tree;
    {
      ScopedSpan s(log, "gravity.tree_build", step);
      if (tree_on)
        tree = std::make_unique<gravity::BarnesHutTree>(
            cdm_, box_, options_.treepm.leaf_size);
    }
    {
      ScopedSpan s(log, "gravity.tree_walk", step);
      if (tree_on) {
        gravity::TreeStats stats;
        tree->accelerations(cdm_, pp_params(derived_), derived_.poly,
                            options_.treepm.theta, options_.treepm.use_simd,
                            sx_, sy_, sz_, &stats);
        tree_p2p_ += stats.p2p_interactions;
      }
    }
    if (tree_on) {
      tree_nodes_ += static_cast<std::uint64_t>(tree->node_count());
      ++tree_passes_;
      const double g_pair = prefactor / (4.0 * M_PI);
      for (std::size_t i = 0; i < cdm_.size(); ++i) {
        ax_[i] += g_pair * sx_[i];
        ay_[i] += g_pair * sy_[i];
        az_[i] += g_pair * sz_[i];
      }
    }
  }

  hybrid::HybridOptions options_;
  double box_;
  cosmo::Background background_;
  hybrid::TreePmDerived derived_;
  gravity::PoissonSolver poisson_;
  mesh::MeshPatch patch_;
  bool has_nu_;
  bool primed_ = false;

  vlasov::PhaseSpace f_;
  nbody::Particles cdm_;
  mesh::Grid3D<double> rho_cdm_, rho_nu_, rho_v_;
  mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_, gx_nu_, gy_nu_, gz_nu_;
  mesh::Grid3D<double> tx_, ty_, tz_, nu_ax_, nu_ay_, nu_az_;
  std::vector<double> ax_, ay_, az_, sx_, sy_, sz_;
  std::uint64_t tree_p2p_ = 0, tree_nodes_ = 0, tree_passes_ = 0;
};

// ---------------------------------------------------------------------------
// Jobs: setup + KDK steps, observed from outside the solver.
// ---------------------------------------------------------------------------
struct Job {
  double t_start = 0.0;
  std::vector<double> step_start, step_end;  // rank 0, every step
  // Steps after the first only:
  std::vector<double> recv_wait;     // blocked in p2p receive, max over ranks
  std::vector<double> exposed_wait;  // halo/fold/slab-wait, max over ranks
  std::uint64_t comm_bytes = 0, comm_msgs = 0;  // p2p, summed over ranks
  double shard_s = 0.0;  // DistributedHybridSolver construction, rank 0

  double mass0 = 0.0, mass_end = 0.0;
  bool finite = false;
  std::uint64_t digest = 0;
  std::uint64_t cells = 0, local_cells = 0;    // phase-space cells; rank 0's
  std::uint64_t tree_p2p = 0, tree_nodes = 0;  // one pass, final particles

  std::vector<Span> spans;  // traced job, rank 0
  std::uint64_t replay_tree_p2p = 0, replay_tree_nodes = 0,
                replay_tree_passes = 0;
};

/// FNV-1a over raw bytes: the final state must repeat bit for bit.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
};

/// Final mass, finiteness, digest and an exact tree work count.
void summarize(Job& job, const hybrid::HybridSolver& solver) {
  job.mass_end = solver.total_mass();
  const auto& f = solver.neutrinos();
  const auto& d = f.dims();
  job.cells = d.total_interior();
  Digest digest;
  bool finite = true;
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        const float* block = f.block(i, j, k);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          finite = finite && std::isfinite(block[v]);
        digest.add(block, f.block_size() * sizeof(float));
      }
  const auto& p = solver.cdm();
  for (const auto* values : {&p.x, &p.y, &p.z, &p.ux, &p.uy, &p.uz}) {
    for (const double v : *values) finite = finite && std::isfinite(v);
    digest.add(values->data(), values->size() * sizeof(double));
  }
  job.finite = finite && std::isfinite(job.mass_end);
  job.digest = digest.h;

  const auto& options = solver.options();
  if (options.enable_tree && p.size() > 0) {
    const auto derived = hybrid::TreePmDerived::from(options, solver.box());
    gravity::BarnesHutTree tree(p, solver.box(), options.treepm.leaf_size);
    std::vector<double> ax, ay, az;
    gravity::TreeStats stats;
    tree.accelerations(p, pp_params(derived), derived.poly,
                       options.treepm.theta, options.treepm.use_simd, ax, ay,
                       az, &stats);
    job.tree_p2p = stats.p2p_interactions;
    job.tree_nodes = static_cast<std::uint64_t>(tree.node_count());
  }
}

/// Roll the initial state periodically by whole cells: sx + n (sy + n sz)
/// = `shift` on the n^3 grid.  Each shift is a different input with the
/// same physics, so the seed varies the bytes but not the realization.
void translate(hybrid::HybridSolver& solver, int shift) {
  const int n = solver.options().pm_grid;  // == the Vlasov spatial grid
  const int s[3] = {shift % n, shift / n % n, shift / n / n % n};
  auto& f = solver.neutrinos();
  const auto& d = f.dims();
  if (d.total_interior() > 0) {
    vlasov::PhaseSpace moved(d, f.geom());
    const std::size_t bytes = f.block_size() * sizeof(float);
    for (int i = 0; i < d.nx; ++i)
      for (int j = 0; j < d.ny; ++j)
        for (int k = 0; k < d.nz; ++k)
          std::memcpy(moved.block((i + s[0]) % d.nx, (j + s[1]) % d.ny,
                                  (k + s[2]) % d.nz),
                      f.block(i, j, k), bytes);
    f = std::move(moved);
  }
  auto& p = solver.cdm();
  const double h = solver.box() / n;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] += s[0] * h;
    p.y[i] += s[1] * h;
    p.z[i] += s[2] * h;
  }
  p.wrap_positions(solver.box());
}

/// The scenario's solver with its initial state shifted by `shift`.  The
/// job's start moves forward by the time the shift took: it is the
/// benchmark's input generation, not the program's setup.
std::unique_ptr<hybrid::HybridSolver> build(
    const driver::SimulationConfig& cfg, int shift, Job& job) {
  const driver::Scenario* scenario = driver::find_scenario(cfg.scenario);
  if (!scenario) throw std::invalid_argument("unknown scenario " + cfg.scenario);
  auto solver = scenario->build(cfg, true);
  const double t0 = now_s();
  translate(*solver, shift);
  job.t_start += now_s() - t0;
  return solver;
}

Job run_serial(const driver::SimulationConfig& cfg, int shift, int steps,
               bool traced) {
  Job job;
  job.t_start = now_s();
  auto solver = build(cfg, shift, job);
  job.mass0 = solver->total_mass();
  job.local_cells = solver->neutrinos().dims().total_interior();
  SpanLog log;
  std::unique_ptr<Replay> replay;
  double a = cfg.a_init;
  for (int s = 0; s < steps; ++s) {
    if (traced && s > 0) {
      if (!replay)
        replay = std::make_unique<Replay>(solver->options(), solver->box(),
                                          solver->background(),
                                          solver->neutrinos());
      replay->step(solver->neutrinos(), solver->cdm(), a, cfg.da_max, s, log);
    }
    job.step_start.push_back(now_s());
    const double a1 = solver->suggest_next_a(a, cfg.da_max);
    solver->step(a, a1);
    a = a1;
    job.step_end.push_back(now_s());
  }
  summarize(job, *solver);
  job.spans = log.spans();
  if (replay) {
    job.replay_tree_p2p = replay->tree_p2p();
    job.replay_tree_nodes = replay->tree_nodes();
    job.replay_tree_passes = replay->tree_passes();
  }
  return job;
}

double exposed_wait(parallel::DistributedHybridSolver& ds) {
  return ds.timers().total("halo-wait") + ds.timers().total("fold-wait") +
         ds.timers().total("slab-wait");
}

Job run_distributed(const driver::SimulationConfig& cfg, int shift,
                    int steps, bool traced) {
  Job job;
  job.t_start = now_s();
  auto global = build(cfg, shift, job);
  job.mass0 = global->total_mass();
  const auto decomp = driver::resolve_run_decomp(cfg, *global);
  const auto nranks = static_cast<std::size_t>(cfg.ranks);
  std::vector<std::vector<double>> recv_wait(nranks), exposed(nranks);
  std::vector<std::uint64_t> bytes(nranks, 0), msgs(nranks, 0);

  comm::run(cfg.ranks, [&](comm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const bool lead = r == 0;
    const double t_shard = now_s();
    parallel::DistributedHybridSolver ds(*global, comm, decomp, cfg.overlap);
    if (lead) {
      job.shard_s = now_s() - t_shard;
      job.local_cells = ds.local_f().dims().total_interior();
    }
    SpanLog log;
    std::unique_ptr<Replay> replay;
    double a = cfg.a_init;
    for (int s = 0; s < steps; ++s) {
      if (traced && s > 0) {
        if (!replay)
          replay = std::make_unique<Replay>(global->options(), global->box(),
                                            ds.background(), ds.local_f());
        replay->step(ds.local_f(), ds.cdm(), a, cfg.da_max, s, log);
        comm.barrier();  // every rank starts the real step together
      }
      const std::uint64_t b0 = comm.bytes_sent(), m0 = comm.messages_sent();
      const double w0 = comm.recv_stats().pop_wait_s;
      const double e0 = exposed_wait(ds);
      const double t0 = now_s();
      const double a1 = ds.suggest_next_a(a, cfg.da_max);
      ds.step(a, a1);
      a = a1;
      const double t1 = now_s();
      if (s > 0) {
        bytes[r] += comm.bytes_sent() - b0;
        msgs[r] += comm.messages_sent() - m0;
        recv_wait[r].push_back(comm.recv_stats().pop_wait_s - w0);
        exposed[r].push_back(exposed_wait(ds) - e0);
      }
      if (lead) {
        job.step_start.push_back(t0);
        job.step_end.push_back(t1);
      }
    }
    ds.gather_into(*global);
    if (lead) {
      job.spans = log.spans();
      if (replay) {
        job.replay_tree_p2p = replay->tree_p2p();
        job.replay_tree_nodes = replay->tree_nodes();
        job.replay_tree_passes = replay->tree_passes();
      }
    }
  });

  for (std::size_t r = 0; r < nranks; ++r) {
    job.comm_bytes += bytes[r];
    job.comm_msgs += msgs[r];
  }
  for (std::size_t s = 0; s < recv_wait[0].size(); ++s) {
    double wait_max = 0.0, exposed_max = 0.0;
    for (std::size_t r = 0; r < nranks; ++r) {
      wait_max = std::max(wait_max, recv_wait[r][s]);
      exposed_max = std::max(exposed_max, exposed[r][s]);
    }
    job.recv_wait.push_back(wait_max);
    job.exposed_wait.push_back(exposed_max);
  }
  summarize(job, *global);
  return job;
}

/// The scenario's initial-condition calls, timed on the side: they are pure
/// functions of the config, so running them again changes no job.
void time_initial_conditions(const driver::SimulationConfig& cfg,
                             SpanLog& log) {
  const cosmo::Params params =
      cosmo::Params::planck2015(cfg.has_neutrinos() ? cfg.m_nu_ev : 0.0);
  const cosmo::PowerSpectrum ps(params);
  {
    ScopedSpan s(log, "cosmology.ic_nu", -1);
    if (cfg.has_neutrinos()) {
      const double u_th =
          cosmo::neutrino_thermal_velocity(params.m_nu_total_ev / 3.0);
      cosmo::NeutrinoIcOptions nopt;
      nopt.a_init = cfg.a_init;
      nopt.seed = cfg.seed;
      vlasov::PhaseSpaceDims dims;
      dims.nx = dims.ny = dims.nz = cfg.nx;
      dims.nux = dims.nuy = dims.nuz = cfg.nu;
      vlasov::PhaseSpaceGeometry geom;
      geom.dx = geom.dy = geom.dz = cfg.box / cfg.nx;
      geom.umax = nopt.umax_over_uth * u_th;
      geom.dux = geom.duy = geom.duz = 2.0 * geom.umax / cfg.nu;
      vlasov::PhaseSpace f(dims, geom);
      const auto fields =
          cosmo::neutrino_linear_fields(ps, cfg.box, cfg.nx, nopt);
      cosmo::initialize_neutrino_phase_space(f, params, u_th, fields.delta,
                                             &fields.bulk_x, &fields.bulk_y,
                                             &fields.bulk_z);
    }
  }
  ScopedSpan s(log, "cosmology.ic_cdm", -1);
  if (cfg.has_particles()) {
    cosmo::ZeldovichOptions zopt;
    zopt.particles_per_side = cfg.np;
    zopt.a_init = cfg.a_init;
    zopt.seed = cfg.seed;
    cosmo::zeldovich_ics(ps, cfg.box, zopt);
  }
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += std::string(i ? "," : "") + "{\"name\":\"" + s.name +
           "\",\"t0\":" + num(s.t0) + ",\"t1\":" + num(s.t1) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"step\":" + std::to_string(s.step) + "}";
  }
  return out + "]";
}

std::string job_json(const Job& j) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(j.digest));
  return "{\"t_start\":" + num(j.t_start) +
         ",\"step_start\":" + list(j.step_start) +
         ",\"step_end\":" + list(j.step_end) +
         ",\"recv_wait\":" + list(j.recv_wait) +
         ",\"exposed_wait\":" + list(j.exposed_wait) +
         ",\"comm_bytes\":" + num(j.comm_bytes) +
         ",\"comm_msgs\":" + num(j.comm_msgs) +
         ",\"shard_s\":" + num(j.shard_s) + ",\"mass0\":" + num(j.mass0) +
         ",\"mass_end\":" + num(j.mass_end) +
         ",\"finite\":" + (j.finite ? "true" : "false") +
         ",\"digest\":\"" + digest + "\"" + ",\"cells\":" + num(j.cells) +
         ",\"local_cells\":" + num(j.local_cells) +
         ",\"tree_p2p\":" + num(j.tree_p2p) +
         ",\"tree_nodes\":" + num(j.tree_nodes) +
         ",\"replay_tree_p2p\":" + num(j.replay_tree_p2p) +
         ",\"replay_tree_nodes\":" + num(j.replay_tree_nodes) +
         ",\"replay_tree_passes\":" + num(j.replay_tree_passes) +
         ",\"spans\":" + spans_json(j.spans) + "}";
}

std::string context_json() {
  const simd::IsaInfo isa = simd::isa_info();
  const auto kernel = [](bool contiguous) {
    return std::string("\"") +
           simd::to_string(simd::resolve_sweep_kernel(
               simd::SweepKernel::kAuto, contiguous)) +
           "\"";
  };
  // Position axes and ux/uy stride across memory; uz is contiguous.
  const std::string strided = kernel(false);
  return "{\"isa\":\"" + isa.name +
         "\",\"float_width\":" + std::to_string(isa.float_width) +
         ",\"fma\":" + (isa.has_fma ? "true" : "false") +
         ",\"sweep_kernels\":{\"x\":" + strided + ",\"y\":" + strided +
         ",\"z\":" + strided + ",\"ux\":" + strided + ",\"uy\":" + strided +
         ",\"uz\":" + kernel(true) + "}" +
         ",\"omp_threads\":" + std::to_string(simd::thread_count()) +
         ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
}

double peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs cli = parse_cli(argc, argv);
    const Options& opts = cli.options;
    const driver::SimulationConfig cfg = driver::make_config(opts);
    const int jobs = opts.get_int("bench_jobs", 1);
    const int steps = opts.get_int("bench_steps", 12);
    const int shift = opts.get_int("bench_shift", 0);
    const bool trace = opts.get_bool("bench_trace", false);
    if (jobs < 1 || steps < 2 || shift < 0)
      throw std::invalid_argument(
          "bench_jobs >= 1, bench_steps >= 2 and bench_shift >= 0");
    const auto run_job = [&](bool traced) {
      return cfg.ranks > 1 ? run_distributed(cfg, shift, steps, traced)
                           : run_serial(cfg, shift, steps, traced);
    };

    std::string out = "{\"context\":" + context_json() + ",\"jobs\":[";
    const int untraced = trace ? 1 : jobs;
    for (int j = 0; j < untraced; ++j) {
      if (j) out += ',';
      out += job_json(run_job(false));
    }
    out += "]";
    if (trace) {
      SpanLog ic_log;
      time_initial_conditions(cfg, ic_log);
      out += ",\"ic_spans\":" + spans_json(ic_log.spans());
      out += ",\"traced\":" + job_json(run_job(true));
    }
    out += ",\"peak_rss_kib\":" + num(peak_rss_kib()) + "}";
    std::puts(out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
