// The byte-level transport seam under the simulated-MPI runtime.
//
// Communicator (communicator.hpp) implements the MPI-shaped API — typed
// sends, collectives, traffic accounting — but everything that actually
// *moves bytes between ranks* goes through this interface.  A Transport is
// one rank's endpoint into a world of `world()` peers; backends decide what
// a "peer" is:
//
//   * InProcTransport (inproc_transport.hpp) — today's thread ranks inside
//     one process, sharing a Context of mailboxes, a generation barrier and
//     a zero-copy pointer staging area.  Bit-identical in behaviour and
//     performance to the pre-seam runtime.
//   * TcpTransport (tcp_transport.hpp) — one OS process per rank,
//     length-prefixed frames over nonblocking loopback/LAN sockets, so the
//     same solver spans address spaces.
//   * FaultyTransport (faulty_transport.hpp) — a decorator injecting
//     seeded faults (drops, delays, short writes, disconnects) to prove the
//     comm layer degrades to clean errors instead of hangs or corruption.
//
// Contract highlights (the conformance suite in tests/test_transport.cpp
// asserts these on every backend):
//   * send() is buffered and non-blocking with respect to the receiver: a
//     rank may send arbitrarily many messages before the peer receives any
//     (framing/queueing must absorb them), so periodic exchange rings
//     cannot deadlock.  It takes its payload by value: a message is its
//     own buffer, and no backend copies it on the way to the inbox
//     (Communicator::send_bytes is the one copy-in path for borrowed
//     bytes).
//   * Messages between a fixed (source, dest) pair arrive in send order
//     for a given tag (MPI's non-overtaking rule); delivery lands in the
//     destination's inbox() Mailbox, which owns tag matching and the
//     blocking/abort semantics.
//   * Collectives must be called by every rank in matching order.  They
//     move data on an internal channel that never appears in inbox()
//     stats (mirrors the in-process staging area's accounting).
//   * abort() is noexcept, idempotent, callable from any thread, and must
//     wake every rank parked in a blocking receive or collective — local
//     *and* remote — with AbortedError.  A transport that detects a dead
//     peer (disconnect without goodbye, framing violation) aborts itself;
//     a partially transferred message is never delivered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/mailbox.hpp"

namespace v6d::comm {

/// First tag available to user point-to-point traffic.  Tags in
/// [0, kFirstUserTag) are reserved for the transport's internal
/// collective/control channel: today both backends move collective
/// payloads out-of-band (the in-process staging area, TCP's separate
/// internal mailbox keyed by an op-sequence counter), but a
/// single-tag-space backend — real MPI — must map those op-sequence
/// tags somewhere, and this reserves the range so user exchanges can
/// never cross-match them.  tools/analyze's `tag-space` check proves
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

/// Read-only view of every rank's contribution to a staged collective.
/// Pointers are valid only inside the gather_all() consume callback.
class StageView {
 public:
  virtual ~StageView() = default;
  virtual const void* data(int rank) const = 0;
  virtual std::size_t size(int rank) const = 0;
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

  // ---- collectives (matching call order on every rank) ----
  virtual void barrier() = 0;
  /// Staged collective: contribute `bytes` bytes at `local`, then run
  /// `consume` with a view of every rank's contribution (all ranks
  /// contribute the same byte count; rank order of reads is up to the
  /// consumer, which is what keeps floating-point reductions bit-identical
  /// across backends).  `local` stays valid for the whole call.
  virtual void gather_all(
      const void* local, std::size_t bytes,
      const std::function<void(const StageView&)>& consume) = 0;
  /// Broadcast root's `bytes` bytes into every rank's `data`.
  virtual void bcast(void* data, std::size_t bytes, int root) = 0;
  /// Personalized variable all-to-all: block i of `send` goes to rank i,
  /// block j of the result arrived from rank j.
  virtual std::vector<std::vector<std::uint8_t>> alltoallv(
      const std::vector<std::vector<std::uint8_t>>& send) = 0;

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
