// Failure-path suite for the fault-tolerance stack: retry schedules,
// scripted transient outages, liveness deadlines, teardown races, torn
// checkpoints, and supervisor exit classification.
//
// The contract under test is the failure model of docs/ROBUSTNESS.md:
// every fault either heals invisibly (retry), surfaces as a typed
// TransportError on every rank (detection), or is recoverable from the
// last committed checkpoint (restart) — and no path may hang.
//
// v6d-analyze: allow-file(tag-space): fault tests drive raw low tags on
// isolated per-test worlds; the kFirstUserTag floor governs production.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/faulty_transport.hpp"
#include "comm/retry.hpp"
#include "comm/runner.hpp"
#include "comm/tcp_transport.hpp"
#include "comm/transport.hpp"
#include "common/options.hpp"
#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "driver/driver.hpp"
#include "driver/supervisor.hpp"
#include "temp_paths.hpp"

namespace {

using namespace v6d;
using namespace v6d::comm;

namespace fs = std::filesystem;

LaunchOptions backend_options(const std::string& backend) {
  LaunchOptions options;
  options.backend = backend;
  options.timeout_s = 30.0;
  return options;
}

LaunchOptions faulty_options(const std::string& backend, int victim,
                             const FaultPlan& plan) {
  LaunchOptions options = backend_options(backend);
  options.wrap = [victim, plan](std::unique_ptr<Transport> inner, int rank) {
    if (rank != victim) return inner;
    return std::unique_ptr<Transport>(
        new FaultyTransport(std::move(inner), plan));
  };
  return options;
}

// ---- retry schedule ---------------------------------------------------

TEST(RetrySchedule, ExponentialWithoutJitterIsExact) {
  RetryPolicy policy{1.0, 8.0, 2.0, 0.0, 0, 0x5eedu};
  RetrySchedule schedule(policy);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 1.0);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 2.0);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 4.0);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 8.0);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 8.0);  // capped at max
  EXPECT_EQ(schedule.attempts(), 5);
  EXPECT_FALSE(schedule.exhausted());  // max_attempts = 0 -> unbounded
}

TEST(RetrySchedule, JitterIsDeterministicPerSeedAndBounded) {
  RetryPolicy policy{10.0, 80.0, 2.0, 0.25, 0, 42};
  RetrySchedule a(policy), b(policy);
  RetrySchedule other(RetryPolicy{10.0, 80.0, 2.0, 0.25, 0, 43});
  bool any_diverged = false;
  double base = 10.0;
  for (int i = 0; i < 8; ++i) {
    const double da = a.next_delay_ms();
    EXPECT_DOUBLE_EQ(da, b.next_delay_ms());  // same seed -> same delays
    if (da != other.next_delay_ms()) any_diverged = true;
    // Jitter only shaves: delay stays in [(1 - jitter) * base, base].
    EXPECT_LE(da, base);
    EXPECT_GE(da, 0.75 * base);
    base = std::min(base * 2.0, 80.0);
  }
  EXPECT_TRUE(any_diverged) << "different seeds must jitter differently";
}

TEST(RetrySchedule, ExhaustionAndReset) {
  RetryPolicy policy{1.0, 4.0, 2.0, 0.0, 3, 0x5eedu};
  RetrySchedule schedule(policy);
  EXPECT_FALSE(schedule.exhausted());
  (void)schedule.next_delay_ms();
  (void)schedule.next_delay_ms();
  (void)schedule.next_delay_ms();
  EXPECT_TRUE(schedule.exhausted());
  schedule.reset();
  EXPECT_FALSE(schedule.exhausted());
  EXPECT_EQ(schedule.attempts(), 0);
  EXPECT_DOUBLE_EQ(schedule.next_delay_ms(), 1.0);  // sequence replays
}

// ---- scripted transient outages --------------------------------------

class RobustnessBackends : public ::testing::TestWithParam<const char*> {};

TEST_P(RobustnessBackends, TransientOutageHealsInsideRetryBudget) {
  // The third send hits a 3-attempt outage; the 6-attempt budget outlasts
  // it, so every message still arrives exactly once, in order — the fault
  // is invisible to the receiver.
  FaultPlan plan;
  plan.transient_fail_at = 2;
  plan.transient_outage = 3;
  run_transport(2, faulty_options(GetParam(), 1, plan),
                [&](Communicator& comm) {
                  if (comm.rank() == 1) {
                    for (std::int32_t m = 0; m < 6; ++m)
                      comm.send(0, 4, &m, 1);
                    auto* faulty =
                        dynamic_cast<FaultyTransport*>(&comm.transport());
                    ASSERT_NE(faulty, nullptr);
                    EXPECT_EQ(faulty->transient_retries(), 3);
                  } else {
                    for (std::int32_t m = 0; m < 6; ++m) {
                      std::int32_t got = -1;
                      comm.recv(1, 4, &got, 1);
                      EXPECT_EQ(got, m);
                    }
                  }
                  comm.barrier();  // world healthy after the outage
                });
}

TEST_P(RobustnessBackends, TransientOutageBeyondBudgetAbortsTyped) {
  // A 7-attempt outage against a 6-attempt budget: the schedule exhausts,
  // the failing rank throws kInjected, and the parked receiver is woken
  // instead of hanging.
  FaultPlan plan;
  plan.transient_fail_at = 0;
  plan.transient_outage = 7;
  try {
    run_transport(2, faulty_options(GetParam(), 1, plan),
                  [&](Communicator& comm) {
                    comm.barrier();
                    if (comm.rank() == 1) {
                      const double v = 1.0;
                      comm.send(0, 4, &v, 1);
                      FAIL() << "exhausted retry budget must throw";
                    }
                    double got = 0.0;
                    comm.recv(1, 4, &got, 1);
                    FAIL() << "receiver of an undelivered message must abort";
                  });
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault(), TransportFault::kInjected);
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RobustnessBackends,
                         ::testing::Values("inproc", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- liveness deadlines (TCP only: heartbeats live on the wire) -------

TEST(TransportLiveness, SilentPeerSurfacesAsPeerLostWithinDeadline) {
  // Rank 1 stops heartbeating and goes silent; every other rank is parked
  // on a recv from it.  The liveness deadline must wake them with a typed
  // kPeerLost naming the victim — and the victim itself must be aborted
  // (via the fan-out) rather than left running.
  const int kVictim = 1;
  LaunchOptions options = backend_options("tcp");
  options.liveness_timeout_s = 0.8;
  try {
    run_transport(3, options, [&](Communicator& comm) {
      comm.barrier();
      if (comm.rank() == kVictim) {
        auto* tcp = dynamic_cast<TcpTransport*>(&comm.transport());
        ASSERT_NE(tcp, nullptr);
        tcp->debug_suppress_heartbeats();
        std::this_thread::sleep_for(std::chrono::milliseconds(2500));
      }
      double never = 0.0;
      comm.recv(kVictim == comm.rank() ? 0 : kVictim, 9, &never, 1);
      FAIL() << "no rank may outlive a missed liveness deadline";
    });
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault(), TransportFault::kPeerLost);
    EXPECT_EQ(e.peer(), kVictim);
    EXPECT_NE(std::string(e.what()).find("liveness deadline"),
              std::string::npos);
  }
}

TEST(TransportLiveness, HeartbeatsKeepAnIdleWorldAlive) {
  // The inverse: ranks that exchange nothing for several deadlines must
  // NOT be declared lost — heartbeats alone carry the liveness signal.
  LaunchOptions options = backend_options("tcp");
  options.liveness_timeout_s = 0.2;
  run_transport(3, options, [&](Communicator& comm) {
    comm.barrier();
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    double sum = comm.rank();
    comm.allreduce_sum(&sum, 1);  // world still intact after the idle gap
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

// ---- teardown race: goodbye then gone ---------------------------------

TEST_P(RobustnessBackends, PeerVanishingAfterGoodbyeIsACleanShutdown) {
  // Rank 2 flushes its goodbyes and drops every connection immediately
  // (a rank reaped right after its last barrier).  The survivors' own
  // goodbye writes may hit a dead socket — that race must read as a
  // departure, not a crash: the job still completes cleanly.
  FaultPlan plan;
  plan.vanish_after_bye = true;
  run_transport(3, faulty_options(GetParam(), 2, plan),
                [&](Communicator& comm) {
                  const int next = (comm.rank() + 1) % 3;
                  const int prev = (comm.rank() + 2) % 3;
                  const std::int32_t v = comm.rank();
                  comm.send(next, 6, &v, 1);
                  std::int32_t got = -1;
                  comm.recv(prev, 6, &got, 1);
                  EXPECT_EQ(got, prev);
                  comm.barrier();
                });  // must not throw: shutdown happens inside run_transport
}

// ---- torn checkpoints --------------------------------------------------

driver::SimulationConfig tiny_distributed_config(const std::string& dir) {
  driver::SimulationConfig cfg;
  cfg.scenario = "vlasov_only";
  cfg.nx = 8;
  cfg.nu = 6;
  cfg.seed = 9;
  cfg.a_final = 0.5;
  cfg.da_max = 0.01;
  cfg.max_steps = 2;
  cfg.ranks = 2;
  cfg.checkpoint_dir = dir;
  return cfg;
}


/// First phase-space shard the committed meta references.
std::string any_payload(const std::string& dir) {
  driver::Checkpoint meta;
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta), io::SnapshotStatus::kOk);
  EXPECT_FALSE(meta.shard_files.empty());
  return meta.shard_files.empty() ? std::string() : meta.shard_files.front();
}

TEST(TornCheckpoint, TruncatedShardIsRejectedOnResume) {
  const temp_paths::ScratchDir scratch("v6d_torn_truncated");
  const auto dir = scratch.str();
  driver::Driver d(tiny_distributed_config(dir));
  d.run();  // stops at max_steps and commits a sharded checkpoint

  const auto shard = fs::path(dir) / any_payload(dir);
  const auto full = fs::file_size(shard);
  ASSERT_GT(full, 16u);
  fs::resize_file(shard, full / 2);  // torn: commit protocol violated

  try {
    (void)driver::Driver::resume(dir, Options{});
    FAIL() << "resume must reject a truncated shard";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos)
        << e.what();
  }
}

TEST(TornCheckpoint, MissingShardIsRejectedOnResume) {
  const temp_paths::ScratchDir scratch("v6d_torn_missing");
  const auto dir = scratch.str();
  driver::Driver d(tiny_distributed_config(dir));
  d.run();
  fs::remove(fs::path(dir) / any_payload(dir));
  try {
    (void)driver::Driver::resume(dir, Options{});
    FAIL() << "resume must reject a missing shard";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos)
        << e.what();
  }
}

TEST(TornCheckpoint, GcKeepsValidCheckpointsAndSweepsDebris) {
  const temp_paths::ScratchDir scratch("v6d_gc_valid");
  const auto dir = scratch.str();
  driver::Driver d(tiny_distributed_config(dir));
  d.run();

  // Debris a crashed worker can leave behind: an in-flight tmp file and a
  // stray payload no meta references.
  std::ofstream(fs::path(dir) / "meta.tmp") << "half a commit";
  std::ofstream(fs::path(dir) / "phase_space.999.r0.bin") << "orphan";
  driver::gc_checkpoint_leftovers(dir);

  EXPECT_FALSE(fs::exists(fs::path(dir) / "meta.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "phase_space.999.r0.bin"));
  driver::Checkpoint meta;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, meta), io::SnapshotStatus::kOk);
  EXPECT_EQ(driver::validate_checkpoint_payloads(dir, meta),
            io::SnapshotStatus::kOk)
      << "GC must not touch a valid checkpoint";
}

TEST(TornCheckpoint, GcRemovesATornCheckpointEntirely) {
  const temp_paths::ScratchDir scratch("v6d_gc_torn");
  const auto dir = scratch.str();
  driver::Driver d(tiny_distributed_config(dir));
  d.run();
  const auto shard = fs::path(dir) / any_payload(dir);
  fs::resize_file(shard, fs::file_size(shard) / 2);

  driver::gc_checkpoint_leftovers(dir);
  // The corpse is gone: no meta, no payloads — the next launch starts
  // fresh instead of refusing to resume forever.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "meta"));
  EXPECT_FALSE(fs::exists(shard));
  driver::Checkpoint meta;
  EXPECT_NE(driver::read_checkpoint_meta(dir, meta), io::SnapshotStatus::kOk);
}

TEST(TornCheckpoint, FsyncFileReportsMissingTarget) {
  EXPECT_FALSE(driver::fsync_file("/nonexistent/v6d/file"));
  const temp_paths::ScratchDir scratch("v6d_fsync");
  const auto dir = scratch.str();
  fs::create_directories(dir);
  const auto path = fs::path(dir) / "x";
  std::ofstream(path) << "bytes";
  EXPECT_TRUE(driver::fsync_file(path.string()));
}

// ---- supervisor exit classification -----------------------------------

int wait_status_of(void (*child)()) {
  const pid_t pid = fork();
  if (pid == 0) {
    child();
    _exit(0);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

TEST(Supervisor, ClassifiesRealWaitStatuses) {
  using driver::ExitClass;
  EXPECT_EQ(driver::classify_exit_status(wait_status_of([] { _exit(0); })),
            ExitClass::kClean);
  EXPECT_EQ(driver::classify_exit_status(
                wait_status_of([] { _exit(driver::kTransientExitCode); })),
            ExitClass::kTransient);
  EXPECT_EQ(driver::classify_exit_status(wait_status_of([] { _exit(3); })),
            ExitClass::kFatal);
  EXPECT_EQ(driver::classify_exit_status(
                wait_status_of([] { raise(SIGKILL); })),
            ExitClass::kSignal);
}

TEST(Supervisor, ExitClassNamesAreStable) {
  using driver::ExitClass;
  EXPECT_STREQ(driver::to_string(ExitClass::kClean), "clean");
  EXPECT_STREQ(driver::to_string(ExitClass::kTransient), "transient");
  EXPECT_STREQ(driver::to_string(ExitClass::kSignal), "signal");
  EXPECT_STREQ(driver::to_string(ExitClass::kFatal), "fatal");
}

TEST(Supervisor, RejectsNonsenseOptions) {
  driver::SupervisorOptions options;
  options.world = 0;
  EXPECT_THROW(driver::run_supervised(options), std::invalid_argument);
  options.world = 2;
  options.min_world = 3;
  EXPECT_THROW(driver::run_supervised(options), std::invalid_argument);
  options.min_world = 1;
  options.command = "dance";
  EXPECT_THROW(driver::run_supervised(options), std::invalid_argument);
}

}  // namespace
