// Supervised checkpoint-restart loop for multi-process runs.
//
// The paper's flagship configuration held 147,456 nodes for days; at that
// scale a dying worker must cost a resume, not the campaign.  The
// supervisor is the recovery tier above the comm layer's detection
// (liveness deadlines) and retry (bounded backoff) tiers: it forks the
// worker world of `v6d supervise` or of any `spawn=N` run (restart=never
// is one unsupervised round), monitors it with waitpid, classifies every
// exit, garbage-collects torn checkpoint debris, and relaunches from the
// latest complete shard set.
// Graceful degradation: when rounds keep failing without checkpoint
// progress — the signature of a permanently lost host — the world shrinks
// by one rank (down to min_world) and the run resumes on the smaller
// topology (checkpoint resume is topology-change safe), with the shrink
// recorded in the supervisor's event stream.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "comm/retry.hpp"

namespace v6d::driver {

/// Exit code a worker uses for transport-level failures (lost peer,
/// aborted world, liveness deadline) — mirrors BSD's EX_TEMPFAIL.  The
/// supervisor restarts these; other nonzero codes (bad config, I/O
/// failure) are fatal, so a misconfigured run cannot restart-loop.
inline constexpr int kTransientExitCode = 75;

/// What one worker's death means for the round.
enum class ExitClass {
  kClean,      // exit 0
  kTransient,  // exit kTransientExitCode: transport failure, retryable
  kSignal,     // killed by a signal (SIGKILL'd host, OOM): retryable
  kFatal,      // any other exit: config or I/O error, do not retry
};

/// Classify a raw waitpid() status word.
ExitClass classify_exit_status(int wait_status);
const char* to_string(ExitClass c);

struct SupervisorOptions {
  /// Initial launch verb ("run" or "resume") and its target (scenario
  /// name / config path, or checkpoint directory for "resume").
  std::string command = "run";
  std::string target;
  int world = 2;
  /// false = one round only, report the failure (a plain spawn=N run).
  bool restart_on_failure = true;
  /// Total relaunches before giving up.
  int max_restarts = 16;
  /// Graceful-degradation floor: the world never shrinks below this.
  int min_world = 1;
  /// Consecutive failed rounds *without checkpoint progress* before the
  /// world shrinks by one rank.
  int shrink_after = 3;
  /// Where the workers checkpoint — probed for the latest complete step
  /// and garbage-collected between rounds.
  std::string checkpoint_dir = "checkpoint";
  /// JSONL event stream (launch/exit/restart/shrink rows); "" = off.
  std::string supervise_log;
  /// After the first worker dies, survivors get this long to unwind on
  /// their own (abort propagation) before SIGTERM, then SIGKILL.
  double straggler_grace_s = 15.0;
  /// Relaunch pacing.
  comm::RetryPolicy relaunch{100.0, 2000.0, 2.0, 0.25, 0, 0x5eedu};
  /// key=value options forwarded to every worker verbatim.
  std::vector<std::pair<std::string, std::string>> passthrough;
};

struct SupervisedRun {
  int exit_code = 0;
  int rounds = 0;    // worker generations launched
  int restarts = 0;  // relaunches after failure
  int shrinks = 0;   // graceful-degradation steps taken
  int final_world = 0;
  /// Step of the last complete checkpoint observed (-1 = none).
  std::int64_t last_step = -1;
};

/// Run the supervised loop to completion.  Returns rather than throws on
/// worker failure (exit_code carries the verdict); throws only on
/// supervisor-level setup errors (cannot fork, bad options).
SupervisedRun run_supervised(const SupervisorOptions& options);

}  // namespace v6d::driver
