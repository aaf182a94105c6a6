// The byte-level transport seam under the simulated-MPI runtime.
//
// Communicator (communicator.hpp) implements the MPI-shaped API — typed
// sends, collectives, traffic accounting — but everything that actually
// *moves bytes between ranks* goes through this interface.  A Transport is
// one rank's endpoint into a world of `world()` peers; backends decide what
// a "peer" is:
//
//   * InProcTransport (inproc_transport.hpp) — thread ranks inside one
//     process, sharing a Context of two mailboxes per rank.
//   * TcpTransport (tcp_transport.hpp) — one OS process per rank,
//     length-prefixed frames over nonblocking loopback/LAN sockets, so the
//     same solver spans address spaces.
//   * FaultyTransport (faulty_transport.hpp) — a decorator injecting
//     seeded faults (drops, delays, short writes, disconnects) to prove the
//     comm layer degrades to clean errors instead of hangs or corruption.
//
// Every backend offers two channels of the same shape: the user channel
// (send/inbox) and the internal channel (send_internal/internal) that
// Communicator writes its collectives on, once for every backend.  A
// backend implements no collective itself.
//
// Contract highlights (the conformance suite in tests/test_transport.cpp
// asserts these on every backend):
//   * send() is buffered and non-blocking with respect to the receiver: a
//     rank may send arbitrarily many messages before the peer receives any
//     (framing/queueing must absorb them), so periodic exchange rings
//     cannot deadlock.  It takes its payload by value: a message is its
//     own buffer, and no backend copies it on the way to the inbox
//     (Communicator::send_bytes is the one copy-in path for borrowed
//     bytes).  send_internal() is the same on the internal channel.
//   * Messages between a fixed (source, dest) pair arrive in send order
//     for a given tag (MPI's non-overtaking rule); delivery lands in the
//     destination's inbox() Mailbox (internal() for the internal
//     channel), which owns tag matching and the blocking/abort semantics.
//   * The internal channel never shows up in inbox() stats: collective
//     traffic is invisible to the receive-side counters.
//   * abort() is noexcept, idempotent, callable from any thread, and must
//     wake every rank parked in a blocking receive on either channel —
//     local *and* remote — with AbortedError.  A transport that detects a
//     dead peer (disconnect without goodbye, framing violation) aborts
//     itself; a partially transferred message is never delivered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/mailbox.hpp"

namespace v6d::comm {

/// First tag available to user point-to-point traffic.  Tags in
/// [0, kFirstUserTag) are reserved for the transport's internal
/// collective/control channel: today every backend keeps that channel
/// in its own mailbox, keyed by Communicator's collective sequence
/// counter, but a single-tag-space backend — real MPI — must map those
/// sequence tags somewhere, and this reserves the range so user
/// exchanges can never cross-match them.  tools/analyze's `tag-space` check proves
/// statically that every user tag in the tree resolves at or above
/// this floor.
inline constexpr int kFirstUserTag = 64;

/// Tag carried by transport liveness (heartbeat) frames inside the
/// reserved internal channel.  Heartbeats are control traffic: they must
/// never be matchable by a user receive, so the tag sits below
/// kFirstUserTag — the `tag-space` analyze check verifies that every
/// reserved-channel constant declared under src/comm/ stays inside
/// [0, kFirstUserTag) and that no two reservations collide.
inline constexpr int kHeartbeatTag = 0;

/// Why a transport operation failed — the classification the failure
/// detector and the supervisor act on.  kPeerLost and kTimeout are
/// retryable from a checkpoint (the peer or the fabric died); kProtocol
/// means corrupted framing (a bug or a bad actor, not worth retrying
/// blindly); kInjected marks FaultyTransport's scripted faults so tests
/// can assert the exact path taken.
enum class TransportFault {
  kUnknown,
  kPeerLost,   // crash, EOF mid-stream, or missed liveness deadline
  kTimeout,    // mesh establishment (rendezvous / connect / accept)
  kProtocol,   // framing violation: bad magic, oversize, unknown kind
  kInjected,   // scripted fault from FaultyTransport
};

/// Thrown by transport operations that fail for transport-level reasons
/// (peer unreachable, connection lost, framing violation, injected
/// fault).  Distinct from AbortedError: a TransportError identifies the
/// *first* failure, AbortedError the secondary wakeups it causes.
/// Carries the fault class and (when known) the peer rank involved, so
/// callers — the driver's exit-code mapping, the supervisor's restart
/// decision — can react without parsing the message.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("transport: " + what) {}
  TransportError(TransportFault fault, int peer, const std::string& what)
      : std::runtime_error("transport: " + what),
        fault_(fault),
        peer_(peer) {}

  TransportFault fault() const { return fault_; }
  /// Rank of the peer involved in the failure; -1 when unknown.
  int peer() const { return peer_; }

 private:
  TransportFault fault_ = TransportFault::kUnknown;
  int peer_ = -1;
};

class Transport {
 public:
  virtual ~Transport();

  /// Backend identifier ("inproc", "tcp", ...), recorded in perf-report
  /// contexts so bench baselines are comparable per transport.
  virtual const char* name() const = 0;
  virtual int rank() const = 0;
  virtual int world() const = 0;

  // ---- rank-addressed point-to-point bytes ----
  /// Buffered send of `payload` to `dest`'s inbox under `tag`.  The
  /// transport takes the payload over and copies none of it: in-process
  /// it is the buffer the receiver pops; TCP writes the frame from it, or
  /// moves it into its own inbox when dest == rank().  Never blocks on the
  /// receiver; throws AbortedError after an abort, TransportError when the
  /// underlying channel fails (and aborts the world first, so peers cannot
  /// hang on the missing message).
  virtual void send(int dest, int tag, std::vector<std::uint8_t> payload) = 0;
  /// The local rank's tag-matched receive side.  All blocking/abort
  /// semantics live in Mailbox (see mailbox.hpp).
  virtual Mailbox& inbox() = 0;

  // ---- the internal channel (Communicator's collectives) ----
  /// send() on the internal channel: `payload` lands in `dest`'s
  /// internal() mailbox under `tag`.  Communicator's collectives never
  /// address the local rank.
  virtual void send_internal(int dest, int tag,
                             std::vector<std::uint8_t> payload) = 0;
  /// The local rank's internal-channel receive side; its traffic never
  /// appears in inbox() stats.
  virtual Mailbox& internal() = 0;

  // ---- failure propagation / teardown ----
  /// Mark the world dead and wake every parked rank, local and remote.
  /// noexcept, idempotent, thread-safe (see mailbox.hpp for the abort-flag
  /// memory-order contract the backends must preserve).
  virtual void abort() noexcept = 0;
  virtual bool aborted() const = 0;
  /// Die abruptly, as a crashing process would: no goodbye, connections
  /// dropped (for TcpTransport: mid-frame, so peers exercise the
  /// short-read path).  Fault-injection hook; default = abort().
  virtual void fail_hard() noexcept { abort(); }
  /// Graceful teardown: flush goodbyes so peers can distinguish a clean
  /// exit from a crash.  Idempotent; default no-op (in-process ranks junk
  /// their Context wholesale).
  virtual void shutdown() {}
  /// Teardown for a rank that says goodbye but cannot linger: goodbyes
  /// are flushed, then every connection drops immediately without
  /// waiting for the peers' own goodbyes — the window a process killed
  /// right after its final barrier exits through.  Peers must treat it
  /// as a clean departure, not a crash.  Default = shutdown().
  virtual void depart_abruptly() { shutdown(); }
  /// If this endpoint diagnosed the failure that aborted the world
  /// (lost peer, liveness deadline, framing violation), throw it as the
  /// descriptive TransportError; otherwise return.  Lets a caller that
  /// woke with a *secondary* AbortedError surface the primary cause.
  virtual void rethrow_diagnosis() {}
};

}  // namespace v6d::comm
