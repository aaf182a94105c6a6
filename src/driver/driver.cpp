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
  // continuation.  The checkpoint echo outranks the environment, except
  // for the launch wiring: how this process joins a world is the caller's
  // (a supervisor passes its own), never that of the run that wrote the
  // checkpoint, so a spawned run's checkpoint resumes in process too.
  auto kv = meta.config.to_kv();
  for (const char* launch : {"transport", "rank", "world", "transport_hosts"})
    kv.erase(launch);
  for (const auto& key : overrides.keys())
    kv[key] = overrides.get(key, "");
  meta.config = SimulationConfig::from_kv(kv);

  Driver driver(meta.config, /*with_ics=*/false);
  // The scenario rebuild fixes the expected shapes: the shards must tile
  // its phase space exactly, or the config was overridden incompatibly.
  status = read_checkpoint_payload(dir, meta, driver.solver_->neutrinos(),
                                   driver.solver_->cdm(), &detail);
  if (status != io::SnapshotStatus::kOk)
    throw std::runtime_error("cannot read checkpoint payload (" +
                             std::string(io::to_string(status)) +
                             "): " + detail);
  // The forces are recomputed from this state, on the ranks that step it.
  driver.solver_->owe_kick(meta.owed_kick, meta.a);

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
  // What a rank ran on: thread ranks share the host's CPUs.
  if (rank_threads_ > 0)
    report.context["threads"] = std::to_string(rank_threads_);

  // One record: the loop's regions with the solver's nested in `step`;
  // phase-space cell counts turn the step total into a rate.
  const TimerRegistry& timers = solver_->timers();
  report.add_timers(timers);
  const auto& steps = timers.samples("step");
  const double step_total = timers.total("step");
  if (!steps.empty() && step_total > 0.0) {
    report.add_metric("step_median_seconds", timers.median_sample("step"),
                      "s");
    // What no region inside the step explains.
    report.add_metric("step_unattributed_seconds", timers.self("step"), "s");
    // Rate over the steps *this* process actually timed (a resumed run's
    // steps_ includes pre-resume steps whose time it never saw).
    const double cells =
        static_cast<double>(solver_->neutrinos().dims().total_interior());
    if (cells > 0.0)
      report.add_metric("cell_updates_per_s",
                        cells * static_cast<double>(steps.size()) / step_total,
                        "1/s");
  }

  std::string error;
  if (!report.write(path, &error))
    throw std::runtime_error("cannot write perf report: " + error);
}

}  // namespace v6d::driver
