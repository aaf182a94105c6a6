#include "driver/driver.hpp"

#include <stdexcept>
#include <string>

#include "driver/checkpoint.hpp"
#include "driver/scenario.hpp"
#include "io/perf_report.hpp"

namespace v6d::driver {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kFinished:
      return "finished";
    case StopReason::kMaxSteps:
      return "max-steps";
    case StopReason::kWallBudget:
      return "wall-budget";
  }
  return "unknown";
}

Driver::Driver(const SimulationConfig& cfg) : Driver(cfg, /*with_ics=*/true) {}

Driver::Driver(const SimulationConfig& cfg, bool with_ics)
    : cfg_(cfg), rng_(cfg.seed), a_(cfg.a_init) {
  if (cfg_.transport == "tcp") {
    // This process is one rank of a multi-process world: every process
    // builds the same global problem (same seed -> same ICs) and the
    // distributed path shards it by cfg_.rank.
    if (cfg_.world <= 0)
      throw std::invalid_argument(
          "transport=tcp requires world=N (total processes)");
    if (cfg_.rank < 0 || cfg_.rank >= cfg_.world)
      throw std::invalid_argument("transport=tcp requires 0 <= rank < world");
    if (cfg_.transport_hosts.empty())
      throw std::invalid_argument(
          "transport=tcp requires transport_hosts= (a host:port,... list or "
          "a shared rendezvous directory; env V6D_TRANSPORT_HOSTS works too)");
    cfg_.ranks = cfg_.world;
  } else if (cfg_.transport != "inproc") {
    throw std::invalid_argument("unknown transport '" + cfg_.transport +
                                "' (expected inproc or tcp)");
  }
  const Scenario* scenario = find_scenario(cfg_.scenario);
  if (!scenario)
    throw std::invalid_argument("unknown scenario: " + cfg_.scenario);
  solver_ = scenario->build(cfg_, with_ics);
}

Driver Driver::resume(const std::string& dir, const Options& overrides) {
  Checkpoint meta;
  std::string detail;
  auto status = read_checkpoint_meta(dir, meta, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("cannot read checkpoint meta (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // A meta that references missing or short payloads is torn — resuming
  // from it would rebuild garbage state, so refuse before reading any.
  status = validate_checkpoint_payloads(dir, meta, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("refusing to resume (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // Apply only keys the caller set explicitly.  A plain apply() would let
  // stray V6D_* environment variables override the checkpointed config
  // for every key the caller left alone — silently breaking bit-identical
  // continuation.  The checkpoint echo outranks the environment.
  auto kv = meta.config.to_kv();
  for (const auto& key : overrides.keys())
    kv[key] = overrides.get(key, "");
  meta.config = SimulationConfig::from_kv(kv);

  Driver driver(meta.config, /*with_ics=*/false);
  // The scenario rebuild fixes the expected shapes: the shards must tile
  // its phase space exactly, or the config was overridden incompatibly.
  hybrid::HybridSolver::StepForces forces;
  status = read_checkpoint_payload(dir, meta, driver.solver_->neutrinos(),
                                   driver.solver_->cdm(), forces, &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("cannot read checkpoint payload (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  if (meta.has_forces) driver.solver_->import_step_forces(forces);

  driver.a_ = meta.a;
  driver.steps_ = meta.step;
  driver.rng_.set_state(meta.rng);
  return driver;
}

void Driver::write_perf_report(const std::string& path) const {
  auto report = io::make_perf_report("driver:" + cfg_.scenario);
  report.context["scenario"] = cfg_.scenario;
  report.context["a"] = std::to_string(a_);
  report.context["steps"] = std::to_string(static_cast<long long>(steps_));
  report.context["ranks"] = std::to_string(cfg_.ranks);
  report.context["transport"] = cfg_.transport;

  // Driver buckets (step / step-control / checkpoint-io) and the solver's
  // force/sweep buckets (vlasov / pm / tree / vlasov-moments) share one
  // report; phase-space cell counts turn the step total into a rate.
  TimerRegistry merged;
  merged.merge(timers_);
  merged.merge(solver_->timers(), "solver:");
  report.add_timers(merged);
  const double step_median = timers_.median_sample("step");
  if (step_median > 0.0)
    report.add_metric("step_median_seconds", step_median, "s");
  // Rate over the steps *this* process actually timed (a resumed run's
  // steps_ includes pre-resume steps whose time it never saw).
  const double cells =
      static_cast<double>(solver_->neutrinos().dims().total_interior());
  const double step_total = timers_.total("step");
  const auto timed_steps =
      static_cast<double>(timers_.samples("step").size());
  if (cells > 0.0 && step_total > 0.0 && timed_steps > 0.0)
    report.add_metric("cell_updates_per_s", cells * timed_steps / step_total,
                      "1/s");

  std::string error;
  if (!report.write(path, &error))
    throw std::runtime_error("cannot write perf report: " + error);
}

}  // namespace v6d::driver
