// The rank loop and sharded checkpointing (see distributed.hpp and the
// Driver class comment).
#include "driver/distributed.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "comm/runner.hpp"
#include "comm/tcp_transport.hpp"
#include "common/trace.hpp"
#include "driver/driver.hpp"
#include "driver/telemetry.hpp"
#include "io/snapshot.hpp"
#include "parallel/decomp_plan.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::driver {

namespace {

namespace fs = std::filesystem;

std::string shard_name(std::int64_t step, int rank) {
  return "phase_space." + std::to_string(step) + ".r" +
         std::to_string(rank) + ".bin";
}

/// Collective checkpoint write, the one writer of every run: each rank
/// writes its own phase-space shard (concurrent I/O; a serial run writes
/// the single shard `.r0`), a barrier orders them before rank 0 commits
/// the meta referencing all of them.  Any rank's failure aborts all ranks
/// with the same error (the allreduce makes the decision uniform, so no
/// rank proceeds to a half-written commit).
void write_rank_checkpoint(const SimulationConfig& cfg,
                           const Xoshiro256::State& rng,
                           const hybrid::HybridSolver& ds,
                           comm::Communicator& comm, const std::string& dir,
                           double a, std::int64_t step) {
  std::error_code ec;
  if (comm.rank() == 0) fs::create_directories(dir, ec);
  comm.barrier();

  std::int64_t failed = 0;
  if (ds.has_neutrinos()) {
    const std::string name = shard_name(step, comm.rank());
    const std::string path = (fs::path(dir) / name).string();
    const std::string tmp = path + ".tmp";
    auto status = io::write_phase_space(tmp, ds.neutrinos());
    if (status == io::SnapshotStatus::kOk && !fsync_file(tmp))
      status = io::SnapshotStatus::kWriteFailed;
    if (status == io::SnapshotStatus::kOk) {
      fs::rename(tmp, path, ec);
      if (ec) status = io::SnapshotStatus::kWriteFailed;
    }
    failed = status == io::SnapshotStatus::kOk ? 0 : 1;
  }
  failed = comm.allreduce_sum(failed);
  if (failed > 0)
    throw std::runtime_error("cannot write checkpoint: " +
                             std::to_string(failed) +
                             " rank(s) failed to write phase-space shards");

  // Gather the step-boundary force cache (collective) before the commit.
  const auto forces = ds.export_step_forces();
  comm.barrier();

  if (comm.rank() == 0) {
    Checkpoint meta;
    meta.config = cfg;
    meta.a = a;
    meta.step = step;
    meta.rng = rng;
    meta.has_phase_space = false;
    meta.has_particles = ds.cdm().size() > 0;
    meta.has_forces = forces.fresh;
    if (ds.has_neutrinos())
      for (int r = 0; r < comm.size(); ++r)
        meta.shard_files.push_back(shard_name(step, r));
    std::string detail;
    const auto status = driver::write_checkpoint(
        dir, meta, nullptr, meta.has_particles ? &ds.cdm() : nullptr,
        meta.has_forces ? &forces : nullptr, &detail);
    if (status != io::SnapshotStatus::kOk)
      throw std::runtime_error("cannot write checkpoint (" +
                               std::string(io::to_string(status)) +
                               "): " + detail);
  }
  comm.barrier();
}

}  // namespace

std::array<int, 3> resolve_run_decomp(const SimulationConfig& cfg,
                                      const hybrid::HybridSolver& solver) {
  parallel::DecompConstraints constraints;
  const auto& d = solver.neutrinos().dims();
  if (d.total_interior() > 0) {
    constraints.vlasov = {d.nx, d.ny, d.nz};
    constraints.vlasov_ghost = d.ghost;
  }
  constraints.pm_grid = solver.options().pm_grid;
  return parallel::resolve_decomp(cfg.decomp, cfg.ranks, constraints);
}

io::SnapshotStatus assemble_phase_space_shards(const std::string& dir,
                                               const Checkpoint& meta,
                                               vlasov::PhaseSpace& global,
                                               std::string* error) {
  const auto& gd = global.dims();
  const auto& gg = global.geom();
  // The solver was rebuilt with an empty phase space, so a shard set that
  // under-covers (or doubly covers) the grid would silently resume from
  // zeroed or overwritten bricks; track per-cell coverage and reject
  // anything but an exact tiling.
  std::vector<std::uint8_t> covered(gd.spatial_cells(), 0);
  auto cover = [&](int i, int j, int k) -> std::uint8_t& {
    return covered[(static_cast<std::size_t>(i) * gd.ny + j) * gd.nz + k];
  };
  for (const auto& name : meta.shard_files) {
    const std::string path = (fs::path(dir) / name).string();
    vlasov::PhaseSpace shard;
    const auto status = io::read_phase_space(path, shard);
    if (status != io::SnapshotStatus::kOk) {
      if (error) *error = path;
      return status;
    }
    const auto& sd = shard.dims();
    const auto& sg = shard.geom();
    // Placement from the shard's geometry origin (written brick-shifted).
    const int oi = static_cast<int>(std::lround((sg.x0 - gg.x0) / gg.dx));
    const int oj = static_cast<int>(std::lround((sg.y0 - gg.y0) / gg.dy));
    const int ok = static_cast<int>(std::lround((sg.z0 - gg.z0) / gg.dz));
    if (sd.nux != gd.nux || sd.nuy != gd.nuy || sd.nuz != gd.nuz ||
        oi < 0 || oj < 0 || ok < 0 || oi + sd.nx > gd.nx ||
        oj + sd.ny > gd.ny || ok + sd.nz > gd.nz) {
      if (error) *error = path + ": shard does not fit the configured grid";
      return io::SnapshotStatus::kBadHeader;
    }
    const std::size_t bytes = global.block_size() * sizeof(float);
    for (int i = 0; i < sd.nx; ++i)
      for (int j = 0; j < sd.ny; ++j)
        for (int k = 0; k < sd.nz; ++k) {
          if (cover(oi + i, oj + j, ok + k)++) {
            if (error)
              *error = path + ": shard overlaps an already restored brick";
            return io::SnapshotStatus::kBadHeader;
          }
          std::memcpy(global.block(oi + i, oj + j, ok + k),
                      shard.block(i, j, k), bytes);
        }
  }
  for (const auto flag : covered)
    if (!flag) {
      if (error)
        *error = "checkpoint shards do not cover the configured grid";
      return io::SnapshotStatus::kBadHeader;
    }
  return io::SnapshotStatus::kOk;
}

RunResult Driver::run() {
  RunResult result;
  Stopwatch wall;

  // transport=tcp means this process IS one rank of a multi-process world:
  // no thread fan-out, one endpoint, and anything that would clobber a
  // shared file (telemetry, traces, reports) belongs to the rank-0 process.
  const bool multiproc = cfg_.transport == "tcp";
  const bool lead_process = !multiproc || cfg_.rank == 0;
  // One in-process rank: the loop steps the world-1 solver itself, over
  // the communicator it owns — no slicing, no gather.
  const bool world_one = !multiproc && cfg_.ranks <= 1;
  const std::array<int, 3> dims =
      world_one ? std::array<int, 3>{1, 1, 1}
                : resolve_run_decomp(cfg_, *solver_);

  // Tracing is armed before the rank threads exist and flushed after they
  // join — the control-plane quiescence the trace buffers require.
  if (!cfg_.trace.empty()) {
    trace::reset();
    trace::enable();
  }
  // The heartbeat needs collectives (global mass, comm-byte allreduce), so
  // the *decision* to emit it must be uniform across ranks; only the lead
  // rank owns the stream and writes rows (in a multi-process world, only
  // the lead process may even open the path — a peer's open would truncate
  // the lead's stream).
  const bool heartbeat = !cfg_.telemetry.empty();
  TelemetryStream telemetry;
  if (heartbeat && lead_process) {
    std::string error;
    if (!telemetry.open(cfg_.telemetry, &error))
      throw std::runtime_error(error);
  }

  // The one stepping loop, run by every rank on its solver.
  const auto step_loop = [&](comm::Communicator& comm,
                             hybrid::HybridSolver& ds) {
    const bool lead = comm.rank() == 0;
    // Thread ranks share one Driver, so only the lead writes its fields;
    // process ranks each own their Driver and keep it coherent locally.
    const bool own_driver = lead || multiproc;
    // This rank's driver buckets (step / step-control / checkpoint-io),
    // folded into the Driver's registry by its owner after the loop.
    TimerRegistry driver_timers;
    double a = a_;
    std::int64_t steps = steps_;
    int steps_here = 0;
    StopReason reason = StopReason::kFinished;
    bool early = false;
    std::string checkpoint_written;
    const double mass0 = heartbeat ? ds.total_mass() : 0.0;
    // Per-step phase increments for the heartbeat = deltas of the merged
    // (driver + solver) bucket totals around the step.
    const auto phase_snapshot = [&] {
      TimerRegistry merged;
      merged.merge(driver_timers);
      merged.merge(ds.timers(), "solver:");
      return timer_totals(merged);
    };

    auto checkpoint_all = [&] {
      ScopedTimer t(driver_timers, "checkpoint-io");
      write_rank_checkpoint(cfg_, rng_.state(), ds, comm, cfg_.checkpoint_dir,
                            a, steps);
      checkpoint_written = cfg_.checkpoint_dir;
    };

    while (a < cfg_.a_final - 1e-12) {
      // Stop decisions come from rank 0 alone (wall clocks differ across
      // threads) so every rank leaves the loop on the same step.
      int stop = 0;
      if (lead) {
        if (cfg_.max_steps > 0 && steps >= cfg_.max_steps)
          stop = 1;
        else if (cfg_.wall_budget_s > 0.0 &&
                 wall.seconds() >= cfg_.wall_budget_s)
          stop = 2;
      }
      comm.bcast(&stop, 1, 0);
      if (stop != 0) {
        reason = stop == 1 ? StopReason::kMaxSteps : StopReason::kWallBudget;
        early = true;
        break;
      }

      double a1;
      {
        ScopedTimer t(driver_timers, "step-control");
        a1 = std::min(ds.suggest_next_a(a, cfg_.da_max), cfg_.a_final);
      }
      std::map<std::string, double> phases_before;
      if (heartbeat && lead) phases_before = phase_snapshot();
      double step_seconds;
      {
        // Per-step samples feed the paper's median-of-steps metric in the
        // perf report alongside the accumulated total.
        trace::Span step_span("step");
        Stopwatch step_watch;
        ds.step(a, a1);
        step_seconds = step_watch.seconds();
        driver_timers.add_sample("step", step_seconds);
      }
      trace::counter("comm-bytes-sent",
                     static_cast<double>(comm.bytes_sent()));
      if (heartbeat) {
        // Collectives: every rank participates, the lead writes the row.
        const double mass = ds.total_mass();
        const std::uint64_t comm_bytes = static_cast<std::uint64_t>(
            comm.allreduce_sum(static_cast<std::int64_t>(comm.bytes_sent())));
        if (lead) {
          Heartbeat hb;
          hb.step = steps + 1;
          hb.a = a1;
          hb.da = a1 - a;
          if (ds.has_neutrinos())
            // Geometry-only bound, identical on every rank — no collective.
            hb.cfl_shift = vlasov::max_position_shift(
                ds.neutrinos(), ds.background().drift_factor(a, a1));
          hb.mass = mass;
          hb.mass_drift = mass0 != 0.0 ? (mass - mass0) / mass0 : 0.0;
          hb.step_seconds = step_seconds;
          hb.phase_seconds = timer_delta(phases_before, phase_snapshot());
          hb.comm_bytes = comm_bytes;
          hb.rss_mb = current_rss_mb();
          telemetry.write(hb);
          trace::counter("mass-drift", hb.mass_drift);
        }
      }
      a = a1;
      ++steps;
      ++steps_here;

      if (lead && cfg_.progress_every > 0 && steps % cfg_.progress_every == 0)
        std::printf("  [%s] step %lld  a = %.4f  (%d ranks)\n",
                    cfg_.scenario.c_str(), static_cast<long long>(steps), a,
                    comm.size());

      if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_dir.empty() &&
          steps % cfg_.checkpoint_every == 0)
        checkpoint_all();
    }

    if (early && !cfg_.checkpoint_dir.empty()) checkpoint_all();

    if (own_driver) {
      a_ = a;
      steps_ = steps;
      result.reason = reason;
      result.steps = steps_here;
      result.checkpoint = checkpoint_written;
      timers_.merge(driver_timers);
    }
  };

  // A rank of a larger world steps its slice of the global solver, then
  // folds the evolved state back so accessors, checkpoints and perf
  // reports see it.  Across processes the bricks travel as messages and
  // only the rank-0 process assembles a global view.
  const auto sliced_rank = [&](comm::Communicator& comm) {
    trace::set_rank(comm.rank());
    hybrid::HybridSolver ds(*solver_, comm, dims, cfg_.overlap);
    step_loop(comm, ds);
    ds.gather_into(*solver_, multiproc);
    if (comm.rank() == 0 || multiproc) solver_->timers().merge(ds.timers());

    if (multiproc && !cfg_.trace.empty()) {
      // One merged Chrome trace, exactly like the thread-rank path: every
      // process ships its (POD) event buffer to rank 0 over the transport
      // — all plan traffic has drained (gather_into ends in a barrier), so
      // the tag cannot collide with live traffic.
      constexpr int kTraceTag = 0x7ace;
      trace::disable();
      auto events = trace::collect();
      if (comm.rank() == 0) {
        for (int r = 1; r < comm.size(); ++r) {
          const auto blob = comm.recv_bytes(r, kTraceTag);
          const std::size_t n = blob.size() / sizeof(trace::Event);
          const std::size_t at = events.size();
          events.resize(at + n);
          std::memcpy(events.data() + at, blob.data(),
                      n * sizeof(trace::Event));
        }
        std::string error;
        if (!trace::write_chrome_trace(cfg_.trace, events, &error))
          throw std::runtime_error("cannot write trace: " + error);
      } else {
        comm.send_bytes(0, kTraceTag, events.data(),
                        events.size() * sizeof(trace::Event));
      }
      trace::reset();
      comm.barrier();
    }
  };

  if (world_one) {
    trace::set_rank(0);
    step_loop(solver_->communicator(), *solver_);
  } else if (multiproc) {
    comm::TcpOptions tcp_options;
    tcp_options.rank = cfg_.rank;
    tcp_options.world = cfg_.world;
    tcp_options.hosts = cfg_.transport_hosts;
    tcp_options.liveness_timeout_s = cfg_.transport_timeout;
    comm::TcpTransport transport(tcp_options);
    comm::Communicator comm(transport);
    try {
      sliced_rank(comm);
    } catch (const comm::AbortedError&) {
      transport.abort();
      // A secondary wakeup, but this endpoint may know the primary cause
      // (a lost peer, a liveness deadline) — surface that diagnosis so
      // the process exits with the retryable transport classification
      // instead of an anonymous abort.
      transport.rethrow_diagnosis();
      throw;
    } catch (...) {
      transport.abort();  // wake remote peers parked on this rank
      throw;
    }
    transport.shutdown();
  } else {
    comm::run(cfg_.ranks, sliced_rank);
  }

  result.a = a_;
  result.total_steps = steps_;
  if (lead_process && !cfg_.perf_report.empty())
    write_perf_report(cfg_.perf_report);
  // The multi-process trace was merged and written inside sliced_rank (it
  // needs the transport); every other run flushes here, after the join.
  if (!cfg_.trace.empty()) {
    if (multiproc) {
      trace::disable();
      trace::reset();
    } else {
      write_trace_file(cfg_.trace);
    }
  }
  return result;
}

void write_trace_file(const std::string& path) {
  const auto events = trace::collect();
  std::string error;
  const bool ok = trace::write_chrome_trace(path, events, &error);
  trace::disable();
  trace::reset();
  if (!ok) throw std::runtime_error("cannot write trace: " + error);
}

}  // namespace v6d::driver
