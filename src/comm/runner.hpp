// Thread launchers for the simulated MPI runtime (comm::run itself is
// declared in communicator.hpp).  run_transport generalizes comm::run
// over the transport seam: the same rank body can execute over in-process
// mailboxes or over per-rank TCP endpoints exchanged through loopback —
// which is how the conformance suite proves the backends interchangeable
// without forking processes.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"

namespace v6d::comm {

/// How run_transport builds each rank's endpoint.
struct LaunchOptions {
  /// "inproc" (shared Context) or "tcp" (one TcpTransport per rank thread,
  /// rendezvousing over loopback — process-grade framing without fork).
  std::string backend = "inproc";
  /// tcp: explicit "host:port,host:port,..." listen list (entry r = rank
  /// r) or a rendezvous directory path; empty = a fresh temporary
  /// directory, removed afterwards.
  std::string rendezvous;
  /// tcp: rendezvous/connect/teardown timeout.
  double timeout_s = 30.0;
  /// tcp: liveness deadline — a peer silent for this long is declared
  /// lost (TransportError{kPeerLost, rank}).  0 disables detection, the
  /// default here and the only meaningful setting for inproc (thread
  /// ranks cannot vanish without unwinding).
  double liveness_timeout_s = 0.0;
  /// tcp: heartbeat send period; 0 derives it from the liveness
  /// deadline, negative disables sending (see TcpOptions).
  double heartbeat_interval_s = 0.0;
  /// Optional per-rank decorator applied to every endpoint before use —
  /// the fault-injection hook (wrap rank k in a FaultyTransport, pass the
  /// rest through).  Called on the rank's own thread.
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>, int)>
      wrap;
};

/// The OpenMP threads each of `ranks` ranks sharing this host takes: an
/// equal share (at least one) of the CPUs this process may run on, or 0
/// when OMP_NUM_THREADS is set and stands.  Without it each rank's team
/// spin-waits on cores the other ranks need.  run_transport's rank
/// threads apply it; the supervisor exports it to the processes it forks.
int rank_cpu_share(int ranks);

/// Run fn(comm) on `nranks` ranks over the requested backend with
/// comm::run's error semantics: secondary AbortedError unwinds are
/// dropped, the first real exception aborts the world and is rethrown on
/// the caller.  Each rank thread's OpenMP teams take rank_cpu_share(nranks)
/// threads.
void run_transport(int nranks, const LaunchOptions& options,
                   const std::function<void(Communicator&)>& fn);

}  // namespace v6d::comm
