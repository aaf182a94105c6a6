// v6d — config-driven scenario runner for the hybrid Vlasov/N-body stack.
//
//   v6d run <scenario.cfg | scenario-name> [key=value ...]
//   v6d resume <checkpoint-dir> [key=value ...]
//   v6d scenarios
//
// `run` takes either a config file (INI key=value; a `scenario=` key picks
// the registry factory) or a bare scenario name; trailing key=value tokens
// override the file.  `resume` rebuilds a checkpointed run and continues
// it — overrides there should stick to driver-control keys (a_final,
// max_steps, wall_budget_s, checkpoint cadence) so the continuation stays
// bit-identical with an uninterrupted run.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "comm/mailbox.hpp"
#include "comm/transport.hpp"
#include "common/options.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"
#include "driver/supervisor.hpp"

namespace {

using namespace v6d;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  v6d run <scenario.cfg | scenario-name> [key=value ...]\n"
               "  v6d resume <checkpoint-dir> [key=value ...]\n"
               "  v6d supervise <scenario.cfg | scenario-name | checkpoint-dir>"
               " [key=value ...]\n"
               "  v6d scenarios\n"
               "\n"
               "common keys: a_final, da_max, max_steps, wall_budget_s,\n"
               "             checkpoint_every, checkpoint_dir,\n"
               "             progress_every, perf_report, seed, box, nx,\n"
               "             nu, np, mnu, ranks, decomp\n"
               "             spawn=N forks N local processes over TCP\n"
               "             restart=on-failure supervises the spawned world\n"
               "             (max_restarts, min_world, shrink_after,\n"
               "             supervise_log tune it; see docs/CONFIG.md)\n");
  return out == stdout ? 0 : 2;
}

int list_scenarios() {
  std::printf("registered scenarios:\n");
  for (const auto& scenario : driver::scenarios())
    std::printf("  %-14s %s\n", scenario.name, scenario.summary);
  return 0;
}

void print_summary(driver::Driver& d, const driver::RunResult& result) {
  std::printf("stopped: %s at a = %.4f after %lld total steps (%d here)\n",
              driver::to_string(result.reason), result.a,
              static_cast<long long>(result.total_steps), result.steps);
  if (!result.checkpoint.empty())
    std::printf("checkpoint written to %s\n", result.checkpoint.c_str());
  if (!d.config().perf_report.empty())
    std::printf("perf report written to %s\n",
                d.config().perf_report.c_str());

  std::printf("wall time per region [s]:   total     self\n");
  for (const auto& b : d.solver().timers().buckets()) {
    const auto depth = std::count(b.path.begin(), b.path.end(), '/');
    const std::string label =
        std::string(2 * static_cast<std::size_t>(depth), ' ') +
        b.path.substr(b.path.rfind('/') + 1);
    std::printf("  %-24s %8.3f %8.3f\n", label.c_str(), b.seconds,
                b.self_seconds);
  }
  std::printf("total mass (critical-density units): %.6e\n",
              d.solver().total_mass());
}

/// Keys the supervisor itself consumes; never forwarded to workers (the
/// transport wiring is re-derived per round, the rest would re-trigger
/// supervision inside a worker).
bool is_supervisor_key(const std::string& key) {
  return key == "spawn" || key == "restart" || key == "max_restarts" ||
         key == "min_world" || key == "shrink_after" ||
         key == "supervise_log" || key == "transport" || key == "rank" ||
         key == "world" || key == "transport_hosts";
}

/// spawn=N: fork N copies of this binary, each re-running `command target`
/// as one TCP rank of an N-process world, under the supervisor.  The
/// rank-0 child prints the run banner/summary.  restart=never (the
/// default of run/resume) is one unsupervised round whose exit code is the
/// supervisor's verdict; restart=on-failure relaunches failed rounds from
/// the latest complete checkpoint.
int run_supervised_world(const std::string& command, const std::string& target,
                         const Options& options, int world) {
  const std::string restart = options.get("restart", "never");
  if (restart != "never" && restart != "on-failure") {
    std::fprintf(stderr,
                 "v6d: restart must be 'never' or 'on-failure' (got '%s')\n",
                 restart.c_str());
    return 2;
  }
  driver::SupervisorOptions sup;
  sup.command = command;
  sup.target = target;
  sup.world = world;
  sup.restart_on_failure = restart == "on-failure";
  sup.max_restarts = options.get_int("max_restarts", sup.max_restarts);
  sup.min_world = options.get_int("min_world", sup.min_world);
  sup.shrink_after = options.get_int("shrink_after", sup.shrink_after);
  sup.checkpoint_dir = options.get("checkpoint_dir", "");
  sup.supervise_log = options.get("supervise_log", "");
  for (const auto& key : options.keys())
    if (!is_supervisor_key(key))
      sup.passthrough.emplace_back(key, options.get(key, ""));
  return driver::run_supervised(sup).exit_code;
}

int cmd_supervise(const std::string& target, Options options) {
  // The target decides the initial verb: a directory with a committed
  // meta is a checkpoint to resume; otherwise it is a scenario name or
  // config file to run, exactly as `v6d run` would take it.
  std::string command = "run";
  if (std::filesystem::exists(std::filesystem::path(target) / "meta")) {
    command = "resume";
    // Keep probing (and checkpointing) the directory we resume from
    // unless the caller redirects it explicitly.
    options.set_default("checkpoint_dir", target);
  } else if (driver::find_scenario(target)) {
    options.set_default("scenario", target);
  } else {
    std::string error;
    if (!options.load_file(target, &error)) {
      std::fprintf(stderr, "v6d supervise: %s\n", error.c_str());
      return 2;
    }
  }
  options.set_default("restart", "on-failure");
  const int world = options.get_int("spawn", 2);
  return run_supervised_world(command, target, options, world);
}

int cmd_run(const std::string& target, Options options) {
  // A bare registry name runs the scenario on its defaults; anything else
  // is a config file path.
  if (driver::find_scenario(target)) {
    options.set_default("scenario", target);
  } else {
    std::string error;
    if (!options.load_file(target, &error)) {
      std::fprintf(stderr, "v6d run: %s\n", error.c_str());
      return 2;
    }
  }
  const int spawn = options.get_int("spawn", 0);
  if (spawn > 1) return run_supervised_world("run", target, options, spawn);

  driver::SimulationConfig cfg = driver::make_config(options);
  // In a multi-process world only the rank-0 process narrates; peers run
  // silently (their stdout would interleave with the lead's).
  const bool lead = cfg.transport != "tcp" || cfg.rank == 0;
  if (lead)
    std::printf("v6d run: scenario '%s', a = %.4f -> %.4f\n",
                cfg.scenario.c_str(), cfg.a_init, cfg.a_final);
  driver::Driver d(cfg);
  const auto result = d.run();
  if (lead) print_summary(d, result);
  return 0;
}

int cmd_resume(const std::string& dir, const Options& options) {
  const int spawn = options.get_int("spawn", 0);
  if (spawn > 1) {
    Options sup = options;
    // A restarting supervisor probes (and checkpoints into) the directory
    // it resumes from unless the caller redirects it explicitly.
    if (options.get("restart", "never") != "never")
      sup.set_default("checkpoint_dir", dir);
    return run_supervised_world("resume", dir, sup, spawn);
  }

  const bool lead = options.get("transport", "inproc") != "tcp" ||
                    options.get_int("rank", 0) == 0;
  if (lead) std::printf("v6d resume: %s\n", dir.c_str());
  driver::Driver d = driver::Driver::resume(dir, options);
  if (lead)
    std::printf("  scenario '%s' at a = %.4f (step %lld), target a = %.4f\n",
                d.config().scenario.c_str(), d.scale_factor(),
                static_cast<long long>(d.step_count()), d.config().a_final);
  const auto result = d.run();
  if (lead) print_summary(d, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs cli = parse_cli(argc, argv);
  if (cli.help) return usage(stdout);
  if (cli.positional.empty()) return usage(stderr);

  const std::string& command = cli.positional[0];
  try {
    if (command == "scenarios") return list_scenarios();
    if (command == "run" || command == "resume") {
      if (cli.positional.size() != 2) return usage(stderr);
      return command == "run" ? cmd_run(cli.positional[1], cli.options)
                              : cmd_resume(cli.positional[1], cli.options);
    }
    if (command == "supervise") {
      if (cli.positional.size() != 2) return usage(stderr);
      return cmd_supervise(cli.positional[1], cli.options);
    }
  } catch (const comm::TransportError& e) {
    // Transport-level failures (lost peer, liveness deadline, aborted
    // world) are the machine's fault, not the config's: exit with the
    // EX_TEMPFAIL-style code so a supervisor knows a restart can help.
    std::fprintf(stderr, "v6d %s: %s\n", command.c_str(), e.what());
    return driver::kTransientExitCode;
  } catch (const comm::AbortedError& e) {
    std::fprintf(stderr, "v6d %s: %s\n", command.c_str(), e.what());
    return driver::kTransientExitCode;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "v6d %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "v6d: unknown command '%s'\n", command.c_str());
  return usage(stderr);
}
