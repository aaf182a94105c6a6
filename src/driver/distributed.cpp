// The rank loop and sharded checkpointing (see distributed.hpp and the
// Driver class comment).
#include "driver/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "comm/runner.hpp"
#include "comm/tcp_transport.hpp"
#include "common/trace.hpp"
#include "driver/checkpoint.hpp"
#include "driver/driver.hpp"
#include "driver/telemetry.hpp"
#include "io/snapshot.hpp"
#include "parallel/decomp_plan.hpp"
#include "simd/dispatch.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::driver {

namespace {

namespace fs = std::filesystem;

/// The failure of the lowest rank that has one (`mine` empty: none), the
/// same on every rank; empty when no rank failed (collective).
std::string first_failure(comm::Communicator& comm, const std::string& mine) {
  const std::int64_t failed = mine.empty() ? 0 : 1;
  const auto all = comm.allgather(&failed, 1);
  const auto first = std::find(all.begin(), all.end(), 1);
  if (first == all.end()) return {};
  const int root = static_cast<int>(first - all.begin());
  std::string text = mine;
  auto length = static_cast<std::int64_t>(text.size());
  comm.bcast(&length, 1, root);
  text.resize(static_cast<std::size_t>(length));
  comm.bcast(text.data(), text.size(), root);
  return text;
}

/// Collective checkpoint write, the one writer of every run: each rank
/// writes its own phase-space shard (concurrent I/O; a serial run writes
/// the single shard `.r0`) before rank 0 commits the meta referencing all
/// of them.  Any rank's failure aborts all ranks with the lowest failing
/// rank's error, which names the directory or file and the OS cause, so
/// no rank proceeds to a half-written commit.
void write_rank_checkpoint(const SimulationConfig& cfg,
                           const Xoshiro256::State& rng,
                           const hybrid::HybridSolver& ds,
                           comm::Communicator& comm, const std::string& dir,
                           double a, std::int64_t step) {
  std::string failure;
  if (comm.rank() == 0) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
      failure = "cannot create checkpoint directory " + dir + ": " +
                ec.message();
  }
  comm.barrier();  // the directory exists before any shard is written

  std::string detail;
  if (failure.empty() && ds.has_neutrinos()) {
    const auto status =
        write_phase_space_shard(dir, step, comm.rank(), ds.neutrinos(), &detail);
    if (status != io::SnapshotStatus::kOk)
      failure = "rank " + std::to_string(comm.rank()) +
                " cannot write its phase-space shard (" +
                io::to_string(status) + "): " + detail;
  }
  failure = first_failure(comm, failure);
  if (!failure.empty())
    throw std::runtime_error("cannot write checkpoint: " + failure);

  // Gather the step-boundary force cache (collective) before the commit.
  const auto forces = ds.export_step_forces();
  comm.barrier();

  if (comm.rank() == 0) {
    Checkpoint meta;
    meta.config = cfg;
    meta.a = a;
    meta.step = step;
    meta.rng = rng;
    meta.has_particles = ds.cdm().size() > 0;
    meta.has_forces = forces.fresh;
    if (ds.has_neutrinos())
      for (int r = 0; r < comm.size(); ++r)
        meta.shard_files.push_back(shard_file_name(step, r));
    std::string detail;
    const auto status = driver::write_checkpoint(
        dir, meta, meta.has_particles ? &ds.cdm() : nullptr,
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
    constraints.vlasov_ghost = vlasov::kStencilGhost;
  }
  constraints.pm_grid = solver.options().pm_grid;
  return parallel::resolve_decomp(cfg.decomp, cfg.ranks, constraints);
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
    // The loop's regions (step / step-control / checkpoint-io) open in the
    // solver's registry, so the solver's phases nest in `step` and the
    // rank keeps one record.
    TimerRegistry& timers = ds.timers();
    double a = a_;
    std::int64_t steps = steps_;
    int steps_here = 0;
    StopReason reason = StopReason::kFinished;
    bool early = false;
    std::string checkpoint_written;
    const double mass0 = heartbeat ? ds.total_mass() : 0.0;

    auto checkpoint_all = [&] {
      ScopedTimer t(timers, "checkpoint-io");
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
        ScopedTimer t(timers, "step-control");
        a1 = std::min(ds.suggest_next_a(a, cfg_.da_max), cfg_.a_final);
      }
      // Per-step phase increments for the heartbeat: deltas of the
      // record's totals around the step.
      std::map<std::string, double> phases_before;
      if (heartbeat && lead) phases_before = timer_totals(timers);
      {
        ScopedTimer t(timers, "step");
        ds.step(a, a1);
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
          hb.step_seconds = timers.samples("step").back();
          hb.phase_seconds = timer_delta(phases_before, timer_totals(timers));
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
      rank_threads_ = simd::thread_count();
      result.reason = reason;
      result.steps = steps_here;
      result.checkpoint = checkpoint_written;
    }
  };

  // A rank of a larger world steps its slice of the global solver, then
  // folds the evolved state back so accessors, checkpoints and perf
  // reports see it.  The bricks travel to rank 0 as messages on every
  // transport; across processes only the rank-0 process holds the
  // assembled global view.
  const auto sliced_rank = [&](comm::Communicator& comm) {
    trace::set_rank(comm.rank());
    hybrid::HybridSolver ds(*solver_, comm, dims, cfg_.overlap);
    step_loop(comm, ds);
    ds.gather_into(*solver_);
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
