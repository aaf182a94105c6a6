// Shared machinery for the scaling reproductions (Tables 2-4, Fig. 7).
//
// Two complementary measurements:
//
//  1. *Real* multi-rank runs of the parallel Vlasov step (brick-decomposed
//     phase space, halo exchange over the simulated MPI runtime) at 1-8
//     ranks on this host — demonstrating the actual communication code.
//
//  2. A *model* of the paper's full-scale runs: host-measured per-unit
//     compute rates (Vlasov cell updates, tree interactions, PM mesh
//     points) combined with an alpha-beta network model and the exact
//     per-rank communication volumes implied by each Table-2 geometry.
//     This reproduces the paper's scaling *shape*: the Vlasov part scales
//     near-ideally (constant per-rank halo volume), the tree part loses a
//     little to imbalance, and the PM part degrades because its FFT is
//     parallelized only over nx*ny processes (the paper's own explanation
//     of Tables 3-4).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "comm/cart.hpp"
#include "comm/perfmodel.hpp"
#include "comm/runner.hpp"
#include "common/timer.hpp"
#include "cosmology/background.hpp"
#include "gravity/tree.hpp"
#include "gravity/poisson.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo_plan.hpp"
#include "nbody/particles.hpp"
#include "common/rng.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::bench {

// ---------------------------------------------------------------------------
// The paper's Table 2 run matrix (full-scale numbers, as printed).
// ---------------------------------------------------------------------------
struct RunConfig {
  std::string id;
  int nx;          // spatial grid per side (Vlasov)
  int nu;          // velocity grid per side
  int ncdm;        // CDM particles per side
  long nodes;      // compute nodes
  int px, py, pz;  // MPI decomposition
  int procs_per_node;

  long nproc() const { return static_cast<long>(px) * py * pz; }
  int npm() const { return ncdm / 3; }  // paper: N_PM = N_CDM / 3^3
};

inline std::vector<RunConfig> paper_run_table() {
  return {
      {"S1", 96, 64, 864, 144, 12, 12, 2, 2},
      {"S2", 96, 64, 864, 288, 12, 12, 4, 2},
      {"S4", 96, 64, 864, 576, 12, 12, 8, 2},
      {"M8", 192, 64, 1728, 1152, 24, 24, 4, 2},
      {"M12", 192, 64, 1728, 1728, 24, 24, 6, 2},
      {"M16", 192, 64, 1728, 2304, 24, 24, 8, 2},
      {"M24", 192, 64, 1728, 3456, 24, 24, 12, 2},
      {"M32", 192, 64, 1728, 4608, 24, 24, 16, 2},
      {"L48", 384, 64, 3456, 6912, 48, 48, 6, 2},
      {"L64", 384, 64, 3456, 9216, 48, 48, 8, 2},
      {"L96", 384, 64, 3456, 13824, 48, 48, 12, 2},
      {"L128", 384, 64, 3456, 18432, 48, 48, 16, 2},
      {"L256", 384, 64, 3456, 36864, 48, 48, 32, 2},
      {"H384", 768, 64, 6912, 55296, 96, 96, 24, 4},
      {"H512", 768, 64, 6912, 73728, 96, 96, 32, 4},
      {"H768", 768, 64, 6912, 110592, 96, 96, 48, 4},
      {"H1024", 768, 64, 6912, 147456, 96, 96, 64, 4},
      {"U1024", 1152, 64, 6912, 147456, 48, 48, 128, 2},
  };
}

// ---------------------------------------------------------------------------
// Host-measured compute rates.
// ---------------------------------------------------------------------------
struct HostRates {
  double vlasov_cells_per_s = 0.0;  // full Eq.(5) step, per phase-space cell
  double tree_parts_per_s = 0.0;    // tree build + walk, per particle
  double pm_points_per_s = 0.0;     // FFT Poisson solve, per mesh point
};

inline HostRates measure_host_rates(int nx = 6, int nu = 10) {
  HostRates rates;
  {
    vlasov::PhaseSpaceDims d;
    d.nx = d.ny = d.nz = nx;
    d.nux = d.nuy = d.nuz = nu;
    vlasov::PhaseSpaceGeometry g;
    g.dx = g.dy = g.dz = 1.0;
    g.umax = 1.0;
    g.dux = g.duy = g.duz = 2.0 / nu;
    vlasov::PhaseSpace f(d, g);
    f.fill(0.5f);
    mesh::Grid3D<double> accel(nx, nx, nx);
    accel.fill(0.07);
    Stopwatch w;
    const int reps = 2;
    for (int r = 0; r < reps; ++r) {
      for (int axis = 0; axis < 3; ++axis)
        advect_velocity_axis(f, axis, accel, 0.5, vlasov::SweepKernel::kAuto);
      for (int axis = 0; axis < 3; ++axis)
        advect_position_axis(f, axis, 0.4, vlasov::SweepKernel::kAuto,
                             vlasov::AxisFaces{});
      for (int axis = 0; axis < 3; ++axis)
        advect_velocity_axis(f, axis, accel, 0.5, vlasov::SweepKernel::kAuto);
    }
    rates.vlasov_cells_per_s =
        static_cast<double>(d.total_interior()) * reps / w.seconds();
  }
  {
    const std::size_t n = 3000;
    nbody::Particles p(n);
    Xoshiro256 rng(3);
    for (std::size_t i = 0; i < n; ++i) {
      p.x[i] = rng.next_double();
      p.y[i] = rng.next_double();
      p.z[i] = rng.next_double();
    }
    p.mass = 1.0 / static_cast<double>(n);
    gravity::PpKernelParams params;
    params.eps = 0.01;
    params.rs = 0.05;
    params.rcut = 4.5 * params.rs;
    gravity::CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
    Stopwatch w;
    gravity::BarnesHutTree tree(p, 1.0, 16);
    std::vector<double> ax, ay, az;
    tree.accelerations(p, params, poly, 0.5, true, ax, ay, az);
    rates.tree_parts_per_s = static_cast<double>(n) / w.seconds();
  }
  {
    const int n = 32;
    gravity::PoissonSolver poisson(n, 1.0);
    mesh::Grid3D<double> rho(n, n, n), phi(n, n, n);
    rho.fill(1.0);
    rho.at(3, 4, 5) = 2.0;
    gravity::PoissonOptions opt;
    Stopwatch w;
    poisson.solve(rho, phi, opt);
    rates.pm_points_per_s =
        static_cast<double>(n) * n * n / w.seconds();
  }
  return rates;
}

// ---------------------------------------------------------------------------
// Full-scale model.
// ---------------------------------------------------------------------------
struct PartTimes {
  double vlasov = 0.0, tree = 0.0, pm = 0.0;
  double comm_vlasov = 0.0, comm_nbody = 0.0;
  double total() const {
    return vlasov + tree + pm + comm_vlasov + comm_nbody;
  }
};

/// Per-step wall-time model for one Table-2 configuration.  Host rates are
/// treated as per-*node* throughput, so configurations with different
/// processes-per-node (the H group runs 4 instead of 2) compare on equal
/// hardware, exactly as the paper's per-node efficiency does.
inline PartTimes model_step(const RunConfig& c, const HostRates& rates,
                            const comm::NetworkModel& net) {
  PartTimes t;
  const double nu3 = std::pow(static_cast<double>(c.nu), 3);
  const double cells_total = std::pow(static_cast<double>(c.nx), 3) * nu3;
  const double procs = static_cast<double>(c.nproc());
  const double nodes = static_cast<double>(c.nodes);
  const double ppn = static_cast<double>(c.procs_per_node);

  // --- Vlasov compute: per-node cells / node rate ---
  t.vlasov = cells_total / nodes / rates.vlasov_cells_per_s;

  // --- Vlasov comm: halo exchange of 3 ghost layers of velocity blocks,
  //     2 directions x 3 axes per drift (one drift per step), with the
  //     node's processes sharing its injection port, plus the CFL
  //     allreduce ---
  const double lx = static_cast<double>(c.nx) / c.px;
  const double ly = static_cast<double>(c.nx) / c.py;
  const double lz = static_cast<double>(c.nx) / c.pz;
  const double face = lx * ly + ly * lz + lx * lz;
  const double halo_bytes = 2.0 * 3.0 * face * nu3 * 4.0;  // both directions
  t.comm_vlasov =
      ppn * net.p2p_time(6, static_cast<std::uint64_t>(halo_bytes)) +
      net.allreduce_time(static_cast<int>(procs), 8);

  // --- tree compute: per-node particles; mild imbalance growth ---
  const double parts_total = std::pow(static_cast<double>(c.ncdm), 3);
  const double imbalance = 1.0 + 0.015 * std::log2(procs);
  t.tree = parts_total / nodes / rates.tree_parts_per_s * imbalance;

  // --- N-body comm: boundary particle exchange (one rcut-deep shell,
  //     rcut ~ 6 PM cells) both directions, 48 bytes per particle ---
  const double parts_per_cell =
      parts_total / std::pow(static_cast<double>(c.npm()), 3);
  const double shell_cells =
      2.0 * 6.0 * (lx * ly + ly * lz + lx * lz) *
      std::pow(static_cast<double>(c.npm()) / c.nx, 2);
  t.comm_nbody =
      ppn * net.p2p_time(26, static_cast<std::uint64_t>(
                                 shell_cells * parts_per_cell * 48.0));

  // --- PM: the FFT is decomposed only over px*py processes (the paper's
  //     SSL II 2-D layout); each process delivers 1/ppn of a node ---
  const double pm_points = std::pow(static_cast<double>(c.npm()), 3);
  const double fft_parallelism = static_cast<double>(c.px) * c.py;
  t.pm = pm_points * ppn / fft_parallelism / rates.pm_points_per_s;
  // Transpose alltoall within the 2-D layout (two transposes per solve).
  const double transpose_bytes_per_rank =
      2.0 * pm_points * 16.0 / fft_parallelism;
  t.pm += net.alltoall_time(
      static_cast<int>(std::min(fft_parallelism, 1024.0)),
      static_cast<std::uint64_t>(transpose_bytes_per_rank /
                                 std::min(fft_parallelism, 1024.0)));
  return t;
}

// ---------------------------------------------------------------------------
// Real parallel Vlasov step measurements on this host.
// ---------------------------------------------------------------------------
struct RealVlasovResult {
  double step_seconds = 0.0;   // median over steps of max-over-ranks
  double comm_seconds = 0.0;   // halo-exchange part
  std::uint64_t bytes_per_rank = 0;
};

/// Message-tag base of the halo plan in measure_real_vlasov (distinct from
/// every production exchange).
constexpr int kRealVlasovHaloTagBase = 420;

/// Run `steps` split steps of a brick-decomposed phase space on `ranks`
/// simulated ranks, exchanging each drift axis' faces through
/// mesh::HaloPlan as the production drift does.  The global spatial grid
/// is `global` cells per axis (pass local * dims for weak scaling, a fixed
/// cube for strong scaling).
inline RealVlasovResult measure_real_vlasov(int ranks,
                                            std::array<int, 3> global, int nu,
                                            int steps) {
  RealVlasovResult result;
  std::vector<double> step_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> comm_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(ranks), 0);

  comm::run(ranks, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(ranks));
    mesh::BrickDecomposition dec(global, cart.dims(), cart.coords());
    vlasov::PhaseSpaceDims d;
    d.nx = dec.local_n(0);
    d.ny = dec.local_n(1);
    d.nz = dec.local_n(2);
    d.nux = d.nuy = d.nuz = nu;
    vlasov::PhaseSpaceGeometry g;
    g.dx = g.dy = g.dz = 1.0;
    g.umax = 1.0;
    g.dux = g.duy = g.duz = 2.0 / nu;
    vlasov::PhaseSpace f(d, g);
    f.fill(0.4f);
    mesh::Grid3D<double> accel(d.nx, d.ny, d.nz);
    accel.fill(0.06);
    mesh::HaloPlan plan(cart, d, kRealVlasovHaloTagBase);

    comm.reset_traffic_counters();
    double comm_acc = 0.0;
    comm.barrier();
    Stopwatch total;
    for (int s = 0; s < steps; ++s) {
      for (int axis = 0; axis < 3; ++axis)
        advect_velocity_axis(f, axis, accel, 0.25,
                             vlasov::SweepKernel::kAuto);
      for (int axis = 0; axis < 3; ++axis) {
        Stopwatch cw;
        plan.begin_axis(f, axis);
        vlasov::AxisFaces faces = plan.finish_axis(axis);
        comm_acc += cw.seconds();
        advect_position_axis(f, axis, 0.35, vlasov::SweepKernel::kAuto,
                             std::move(faces));
      }
      for (int axis = 0; axis < 3; ++axis)
        advect_velocity_axis(f, axis, accel, 0.25,
                             vlasov::SweepKernel::kAuto);
    }
    comm.barrier();
    const auto r = static_cast<std::size_t>(comm.rank());
    step_time[r] = total.seconds() / steps;
    comm_time[r] = comm_acc / steps;
    bytes[r] = comm.bytes_sent() / static_cast<std::uint64_t>(steps);
  });

  for (int r = 0; r < ranks; ++r) {
    result.step_seconds = std::max(result.step_seconds,
                                   step_time[static_cast<std::size_t>(r)]);
    result.comm_seconds = std::max(result.comm_seconds,
                                   comm_time[static_cast<std::size_t>(r)]);
    result.bytes_per_rank = std::max(result.bytes_per_rank,
                                     bytes[static_cast<std::size_t>(r)]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Real distributed KDK steps (the production execution path).
// ---------------------------------------------------------------------------
struct DistributedStepResult {
  double step_seconds = 0.0;  // per step, max over ranks
  double halo_seconds = 0.0;  // phase-space halo exchange, max over ranks
  double pm_seconds = 0.0;    // distributed PM solve, max over ranks
  // Overlap diagnostics (per step, max over ranks):
  double halo_wait_seconds = 0.0;  // exposed (blocked) part of halo_seconds
  double exposed_seconds = 0.0;   // all comm time spent *blocked* (halo +
                                  // fold + slab waits) — the un-hidden part
  std::uint64_t bytes_per_rank = 0;  // all comm (halo + FFT + reductions)
  // Comm-layer counters (max over ranks, per step where noted):
  std::uint64_t msgs_per_rank = 0;        // p2p messages sent per step
  std::uint64_t recv_bytes_per_rank = 0;  // bytes consumed from mailbox/step
  std::uint64_t peak_queue_depth = 0;     // mailbox high-water (whole run)
  double recv_wait_seconds = 0.0;         // blocked-in-pop seconds per step
  std::array<int, 3> global{};            // global Vlasov grid used
};

/// Run `steps` full KDK steps of a sliced hybrid::HybridSolver — halo
/// exchange, ghost fold, distributed-FFT Poisson, allreduced CFL — on
/// `ranks` simulated ranks with a fixed local_n^3 brick per rank (weak
/// scaling).  This is the same code path `v6d run ranks=N` executes;
/// `overlap` completes each fold/slab exchange after the compute it hides
/// behind (true) or right after its begin (false).
inline DistributedStepResult measure_distributed_step(int ranks, int local_n,
                                                      int nu, int steps,
                                                      bool overlap = true) {
  DistributedStepResult result;
  const auto dims = comm::CartTopology::choose_dims(ranks);
  const std::array<int, 3> global = {local_n * dims[0], local_n * dims[1],
                                     local_n * dims[2]};
  result.global = global;

  // Global vlasov-only solver with smooth ICs; the distributed solver
  // shards it exactly as the driver does.
  vlasov::PhaseSpaceDims d;
  d.nx = global[0];
  d.ny = global[1];
  d.nz = global[2];
  d.nux = d.nuy = d.nuz = nu;
  vlasov::PhaseSpaceGeometry g;
  const double box = static_cast<double>(global[0]);
  g.dx = box / global[0];
  g.dy = box / global[1];
  g.dz = box / global[2];
  g.umax = 1.0;
  g.dux = g.duy = g.duz = 2.0 / nu;
  vlasov::PhaseSpace f(d, g);
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        float* blk = f.block(i, j, k);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = 0.4f + 0.1f * static_cast<float>(
                                     std::sin(0.5 * i + 0.3 * j + 0.7 * k));
      }
  hybrid::HybridOptions options;
  options.pm_grid = global[0];  // divisible by every dims axis
  options.enable_tree = false;
  const cosmo::Params params = cosmo::Params::planck2015(0.4);
  const cosmo::Background bg(params);
  hybrid::HybridSolver solver(std::move(f), nbody::Particles(), box, bg,
                              options);

  std::vector<double> step_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> halo_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> pm_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> halo_wait(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> exposed_time(static_cast<std::size_t>(ranks), 0.0);
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> msgs(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> recv_bytes(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> peak_depth(static_cast<std::size_t>(ranks), 0);
  std::vector<double> recv_wait(static_cast<std::size_t>(ranks), 0.0);

  comm::run(ranks, [&](comm::Communicator& comm) {
    hybrid::HybridSolver ds(solver, comm, dims, overlap);
    comm.reset_traffic_counters();
    // Mailbox stats are monotonic for the context lifetime; the measured
    // section is the delta from this snapshot (solver construction already
    // exchanged setup messages).
    const comm::MailboxStats recv0 = comm.recv_stats();
    comm.barrier();
    Stopwatch total;
    double a = 0.5;
    for (int s = 0; s < steps; ++s) {
      const double a1 = ds.suggest_next_a(a, 0.05);
      ds.step(a, a1);
      a = a1;
    }
    comm.barrier();
    const auto r = static_cast<std::size_t>(comm.rank());
    step_time[r] = total.seconds() / steps;
    halo_time[r] = ds.timers().total("halo") / steps;
    pm_time[r] = ds.timers().total("pm") / steps;
    // Exposed comm = the blocked waits the overlap failed to hide.
    halo_wait[r] = ds.timers().total("halo-wait") / steps;
    exposed_time[r] = (ds.timers().total("halo-wait") +
                       ds.timers().total("fold-wait") +
                       ds.timers().total("slab-wait")) /
                      steps;
    bytes[r] = comm.bytes_sent() / static_cast<std::uint64_t>(steps);
    const comm::MailboxStats recv1 = comm.recv_stats();
    msgs[r] = comm.messages_sent() / static_cast<std::uint64_t>(steps);
    recv_bytes[r] = (recv1.bytes_popped - recv0.bytes_popped) /
                    static_cast<std::uint64_t>(steps);
    peak_depth[r] = recv1.peak_queue_depth;
    recv_wait[r] = (recv1.pop_wait_s - recv0.pop_wait_s) / steps;
  });

  for (int r = 0; r < ranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    result.step_seconds = std::max(result.step_seconds, step_time[i]);
    result.halo_seconds = std::max(result.halo_seconds, halo_time[i]);
    result.pm_seconds = std::max(result.pm_seconds, pm_time[i]);
    result.halo_wait_seconds =
        std::max(result.halo_wait_seconds, halo_wait[i]);
    result.exposed_seconds = std::max(result.exposed_seconds, exposed_time[i]);
    result.bytes_per_rank = std::max(result.bytes_per_rank, bytes[i]);
    result.msgs_per_rank = std::max(result.msgs_per_rank, msgs[i]);
    result.recv_bytes_per_rank =
        std::max(result.recv_bytes_per_rank, recv_bytes[i]);
    result.peak_queue_depth = std::max(result.peak_queue_depth, peak_depth[i]);
    result.recv_wait_seconds = std::max(result.recv_wait_seconds, recv_wait[i]);
  }
  return result;
}

}  // namespace v6d::bench
