#include "driver/supervisor.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/runner.hpp"
#include "common/timer.hpp"
#include "driver/checkpoint.hpp"

namespace v6d::driver {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Worker {
  pid_t pid = -1;
  int rank = -1;
  bool exited = false;
  int status = 0;
};

/// Fresh rendezvous directory for one worker generation, under $TMPDIR
/// (else /tmp).  Never reused across rounds: a relaunched world must not
/// trip over `rank.<r>` files a dead predecessor left behind.
std::string make_rendezvous_dir() {
  const char* env = std::getenv("TMPDIR");
  const std::string base = env && *env ? env : "/tmp";
  std::string tmpl = base + "/v6d-supervise-XXXXXX";
  if (!mkdtemp(tmpl.data()))
    throw std::runtime_error("supervise: mkdtemp under " + base +
                             " failed: " + std::strerror(errno));
  return tmpl;
}

pid_t launch_worker(const SupervisorOptions& options, const std::string& verb,
                    const std::string& target, int rank, int world,
                    const std::string& rendezvous, bool shrunk) {
  const pid_t pid = fork();
  if (pid < 0)
    throw std::runtime_error("supervise: fork failed: " +
                             std::string(std::strerror(errno)));
  if (pid != 0) return pid;

  std::vector<std::string> args;
  args.emplace_back("/proc/self/exe");
  args.push_back(verb);
  args.push_back(target);
  for (const auto& [key, value] : options.passthrough)
    args.push_back(key + "=" + value);
  // Transport wiring comes after the passthrough so it wins on conflict.
  args.emplace_back("transport=tcp");
  args.push_back("rank=" + std::to_string(rank));
  args.push_back("world=" + std::to_string(world));
  args.push_back("transport_hosts=" + rendezvous);
  // A shrunk world cannot keep a decomposition chosen for the original
  // rank count; let the factorizer re-split the grid.
  if (shrunk) args.emplace_back("decomp=auto");
  // The rank processes share this host's CPUs as thread ranks do.
  if (const int threads = comm::rank_cpu_share(world))
    setenv("OMP_NUM_THREADS", std::to_string(threads).c_str(), 1);

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  execv("/proc/self/exe", argv.data());
  std::fprintf(stderr, "supervise: execv failed: %s\n", std::strerror(errno));
  _exit(127);  // exec failure reads as fatal, not retryable
}

/// Latest complete checkpoint step in `dir`, or -1 when there is no
/// committed, fully validated checkpoint to resume from.
std::int64_t probe_checkpoint_step(const std::string& dir) {
  if (dir.empty()) return -1;
  Checkpoint meta;
  if (read_checkpoint_meta(dir, meta) != io::SnapshotStatus::kOk) return -1;
  if (validate_checkpoint_payloads(dir, meta) != io::SnapshotStatus::kOk)
    return -1;
  return meta.step;
}

class EventLog {
 public:
  explicit EventLog(const std::string& path) {
    if (!path.empty()) {
      file_ = std::fopen(path.c_str(), "w");
      if (!file_)
        throw std::runtime_error("supervise: cannot open supervise_log '" +
                                 path + "': " + std::strerror(errno));
    }
  }
  ~EventLog() {
    if (file_) std::fclose(file_);
  }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// `fields` is the pre-rendered JSON body after the event name.
  void emit(const char* event, const std::string& fields) {
    if (!file_) return;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start_).count();
    std::fprintf(file_, "{\"event\":\"%s\",\"elapsed_s\":%.3f%s%s}\n", event,
                 elapsed, fields.empty() ? "" : ",", fields.c_str());
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
  Clock::time_point start_ = Clock::now();
};

struct RoundOutcome {
  bool all_clean = true;
  bool any_fatal = false;
  int fatal_code = 1;
};

/// Reap one generation of workers.  After the first non-clean exit the
/// survivors get `straggler_grace_s` to unwind via abort propagation (or
/// their own liveness deadline), then SIGTERM, then SIGKILL — no failure
/// path may hang the supervisor.
RoundOutcome monitor_round(std::vector<Worker>& workers, int round,
                           const SupervisorOptions& options, EventLog& log) {
  RoundOutcome outcome;
  std::size_t remaining = workers.size();
  bool failing = false;
  Clock::time_point first_failure{};
  bool term_sent = false, kill_sent = false;

  const auto signal_survivors = [&](int sig) {
    for (const auto& w : workers)
      if (!w.exited) kill(w.pid, sig);
  };

  while (remaining > 0) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      for (auto& w : workers) {
        if (w.pid != pid || w.exited) continue;
        w.exited = true;
        w.status = status;
        --remaining;
        const ExitClass cls = classify_exit_status(status);
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        if (cls != ExitClass::kClean) {
          outcome.all_clean = false;
          if (!failing) {
            failing = true;
            first_failure = Clock::now();
          }
          std::printf("supervise: rank %d exited %s (code %d, signal %d)\n",
                      w.rank, to_string(cls), code, sig);
          std::fflush(stdout);
        }
        if (cls == ExitClass::kFatal) {
          outcome.any_fatal = true;
          outcome.fatal_code = code > 0 ? code : 1;
        }
        char fields[160];
        std::snprintf(fields, sizeof(fields),
                      "\"round\":%d,\"rank\":%d,\"pid\":%d,\"class\":\"%s\","
                      "\"code\":%d,\"signal\":%d",
                      round, w.rank, static_cast<int>(pid), to_string(cls),
                      code, sig);
        log.emit("worker-exit", fields);
        break;
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (!failing) continue;
    const double since =
        std::chrono::duration<double>(Clock::now() - first_failure).count();
    if (!term_sent && since > options.straggler_grace_s) {
      term_sent = true;
      signal_survivors(SIGTERM);
      log.emit("straggler-term", "\"round\":" + std::to_string(round));
    }
    if (!kill_sent && since > options.straggler_grace_s + 5.0) {
      kill_sent = true;
      signal_survivors(SIGKILL);
      log.emit("straggler-kill", "\"round\":" + std::to_string(round));
    }
  }
  return outcome;
}

}  // namespace

ExitClass classify_exit_status(int wait_status) {
  if (WIFSIGNALED(wait_status)) return ExitClass::kSignal;
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == 0) return ExitClass::kClean;
    if (code == kTransientExitCode) return ExitClass::kTransient;
  }
  return ExitClass::kFatal;
}

const char* to_string(ExitClass c) {
  switch (c) {
    case ExitClass::kClean:
      return "clean";
    case ExitClass::kTransient:
      return "transient";
    case ExitClass::kSignal:
      return "signal";
    case ExitClass::kFatal:
      return "fatal";
  }
  return "unknown";
}

SupervisedRun run_supervised(const SupervisorOptions& options) {
  if (options.world < 1)
    throw std::invalid_argument("supervise: world must be >= 1");
  if (options.min_world < 1 || options.min_world > options.world)
    throw std::invalid_argument(
        "supervise: min_world must be in [1, world]");
  if (options.command != "run" && options.command != "resume")
    throw std::invalid_argument("supervise: command must be run or resume");

  EventLog log(options.supervise_log);
  TimerRegistry timers;
  comm::RetrySchedule backoff(options.relaunch);

  SupervisedRun result;
  result.final_world = options.world;
  result.last_step = probe_checkpoint_step(options.checkpoint_dir);

  int world = options.world;
  int consecutive_failures = 0;
  bool shrunk = false;
  std::string verb = options.command;
  std::string target = options.target;

  for (;;) {
    // --- launch one generation -----------------------------------------
    std::string rendezvous;
    std::vector<Worker> workers;
    {
      ScopedTimer t(timers, "supervise-relaunch");
      rendezvous = make_rendezvous_dir();
      workers.reserve(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        Worker w;
        w.rank = r;
        w.pid = launch_worker(options, verb, target, r, world, rendezvous,
                              shrunk);
        workers.push_back(w);
      }
    }
    ++result.rounds;
    const int round = result.rounds;
    {
      char fields[160];
      std::snprintf(fields, sizeof(fields),
                    "\"round\":%d,\"world\":%d,\"command\":\"%s\","
                    "\"restarts\":%d",
                    round, world, verb.c_str(), result.restarts);
      log.emit("launch", fields);
    }
    for (const auto& w : workers)
      std::printf("supervise: rank %d pid %d (round %d)\n", w.rank,
                  static_cast<int>(w.pid), round);
    std::fflush(stdout);

    // --- wait for it ----------------------------------------------------
    RoundOutcome outcome;
    {
      ScopedTimer t(timers, "supervise-wait");
      outcome = monitor_round(workers, round, options, log);
    }
    std::error_code ec;
    fs::remove_all(rendezvous, ec);

    // --- classify the round --------------------------------------------
    if (outcome.all_clean) {
      result.exit_code = 0;
      break;
    }
    if (outcome.any_fatal) {
      // Not a machine fault: restarting would fail the same way.
      result.exit_code = outcome.fatal_code;
      break;
    }
    if (!options.restart_on_failure ||
        result.restarts >= options.max_restarts) {
      result.exit_code = kTransientExitCode;
      break;
    }

    // --- prepare the next generation -----------------------------------
    if (!options.checkpoint_dir.empty())
      gc_checkpoint_leftovers(options.checkpoint_dir);
    const std::int64_t step = probe_checkpoint_step(options.checkpoint_dir);
    if (step > result.last_step) {
      // The failed round still advanced the checkpoint: the machine is
      // making progress, so the failure streak (and backoff) reset.
      result.last_step = step;
      consecutive_failures = 0;
      backoff.reset();
    } else {
      ++consecutive_failures;
    }
    if (consecutive_failures >= options.shrink_after &&
        world > options.min_world) {
      // Repeated failures with zero progress look like a permanently
      // lost host, not a transient fault: degrade to a smaller world and
      // keep going rather than burning the whole restart budget.
      const int to = world - 1;
      std::printf("supervise: shrinking world %d -> %d after %d rounds "
                  "without progress\n",
                  world, to, consecutive_failures);
      std::fflush(stdout);
      log.emit("shrink", "\"world\":" + std::to_string(world) +
                             ",\"to\":" + std::to_string(to));
      world = to;
      shrunk = true;
      ++result.shrinks;
      result.final_world = world;
      consecutive_failures = 0;
    }
    if (step >= 0) {
      verb = "resume";
      target = options.checkpoint_dir;
    } else {
      verb = options.command;
      target = options.target;
    }
    ++result.restarts;
    log.emit("restart", "\"round\":" + std::to_string(round) +
                            ",\"from_step\":" + std::to_string(step) +
                            ",\"command\":\"" + verb + "\"");
    {
      ScopedTimer t(timers, "retry-backoff");
      const double delay_ms = backoff.next_delay_ms();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
  }

  {
    const std::int64_t step = probe_checkpoint_step(options.checkpoint_dir);
    if (step > result.last_step) result.last_step = step;
    char fields[200];
    std::snprintf(fields, sizeof(fields),
                  "\"exit_code\":%d,\"rounds\":%d,\"restarts\":%d,"
                  "\"shrinks\":%d,\"final_world\":%d,\"last_step\":%lld",
                  result.exit_code, result.rounds, result.restarts,
                  result.shrinks, result.final_world,
                  static_cast<long long>(result.last_step));
    log.emit("done", fields);
  }
  std::printf(
      "supervise: done exit=%d rounds=%d restarts=%d shrinks=%d world=%d "
      "(wait %.3fs, relaunch %.3fs, backoff %.3fs)\n",
      result.exit_code, result.rounds, result.restarts, result.shrinks,
      result.final_world, timers.total("supervise-wait"),
      timers.total("supervise-relaunch"), timers.total("retry-backoff"));
  std::fflush(stdout);
  return result;
}

}  // namespace v6d::driver
