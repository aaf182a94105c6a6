// The simulation driver: the application-layer run loop every example and
// bench used to hand-roll.
//
// A Driver owns one scenario-built (world-1) HybridSolver and advances it
// with CFL-adaptive steps (HybridSolver::suggest_next_a) until the target
// epoch, a step budget, or a wall-clock budget is hit.  One rank loop
// (driver/distributed.cpp) runs at every rank count: at ranks = 1 it steps
// the world-1 solver itself; otherwise each rank steps its slice and the
// state is gathered back.  The loop's timed regions ("step",
// "step-control", "checkpoint-io") open in the solver's TimerRegistry, so
// the solver's own regions (vlasov / pm / tree ...) nest in "step" and a
// rank has one record — the paper's end-to-end timing includes snapshot
// I/O (§7.2), so checkpoint writes are timed like any other phase.
//
// Checkpoints (periodic or on early stop) capture everything the run loop
// needs — phase space (one shard per rank), particles, RNG state, scale
// factor, step count, and the full config — so a killed run resumed with
// Driver::resume continues bit-identically with the uninterrupted run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::driver {

enum class StopReason { kFinished, kMaxSteps, kWallBudget };
const char* to_string(StopReason reason);

struct RunResult {
  StopReason reason = StopReason::kFinished;
  double a = 0.0;           // scale factor reached
  int steps = 0;            // steps taken by this run() call
  std::int64_t total_steps = 0;  // including steps before a resume
  std::string checkpoint;   // last checkpoint dir written ("" if none)
};

class Driver {
 public:
  /// Build a fresh run from `cfg` (use make_config to layer scenario
  /// defaults under file/CLI overrides first).  Throws
  /// std::invalid_argument for an unknown scenario name.
  explicit Driver(const SimulationConfig& cfg);

  /// Rebuild a killed run from a checkpoint directory.  `overrides` may
  /// adjust driver-control keys (a_final, max_steps, wall_budget_s,
  /// checkpoint cadence); physics keys must stay untouched for the
  /// continuation to remain bit-identical.  Throws std::runtime_error on
  /// unreadable/corrupt checkpoints or config/payload shape mismatches.
  static Driver resume(const std::string& dir,
                       const Options& overrides = Options());

  /// Advance until a_final / max_steps / wall budget.  Early stops write
  /// a checkpoint to config().checkpoint_dir (when non-empty) so the run
  /// is resumable by construction.  The rank loop of
  /// driver/distributed.cpp: steps the world-1 solver at ranks = 1, or
  /// slices it over comm::run thread ranks (or this process's TCP rank)
  /// with allreduce-agreed CFL intervals and per-rank checkpoint shards.
  RunResult run();

  /// Write the lead rank's record of timed regions (solver().timers()) as
  /// a v6d-perf/1 JSON report: one phase per path with its self time, and
  /// the step's median, unattributed self time and cell-update rate.
  /// run() calls this automatically when config().perf_report is
  /// non-empty.  Throws std::runtime_error on I/O failure.
  void write_perf_report(const std::string& path) const;

  hybrid::HybridSolver& solver() { return *solver_; }
  const hybrid::HybridSolver& solver() const { return *solver_; }
  const SimulationConfig& config() const { return cfg_; }
  double scale_factor() const { return a_; }
  std::int64_t step_count() const { return steps_; }

 private:
  Driver(const SimulationConfig& cfg, bool with_ics);

  SimulationConfig cfg_;
  std::unique_ptr<hybrid::HybridSolver> solver_;
  Xoshiro256 rng_;
  double a_ = 0.0;
  std::int64_t steps_ = 0;
  int rank_threads_ = 0;  // OpenMP threads of the lead rank's last run()
};

}  // namespace v6d::driver
