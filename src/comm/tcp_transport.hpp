// TCP transport backend: one OS process (or thread, in tests) per rank,
// length-prefixed frames over nonblocking sockets.
//
// Modeled on active-message queues over sendrecv (DASH's
// dart_active_messages_sendrecv): every message travels as one frame —
// fixed header (magic, kind, tag, payload length) followed by the payload
// — over a persistent full-mesh of connections, and a per-rank receiver
// thread reassembles frames and delivers them into the same tag-matched
// Mailbox the in-process backend uses: kData frames into inbox(), kInternal
// frames (Communicator's collectives) into internal().  That keeps the
// entire blocking / abort / FIFO-per-peer contract in one place
// (mailbox.hpp) and makes the wire path byte-for-byte interchangeable with
// thread ranks.
//
// Rendezvous: `hosts` is either an explicit "host:port,host:port,..."
// listen list (entry r = rank r's address — multi-host capable, e.g. via
// the V6D_TRANSPORT_HOSTS environment variable) or a shared directory
// path: each rank binds an ephemeral loopback port and publishes it as
// `<dir>/rank.<r>` (atomic rename), then polls for its peers' files.
// Connections are dialed with exponential backoff until `timeout_s` —
// ranks of a job never start simultaneously.
//
// Topology: rank r dials every lower rank and accepts from every higher
// rank, identifying itself with a hello frame; connects go strictly
// downward while accepts come strictly from ranks still dialing, so
// the mesh setup cannot deadlock.  Sends are written directly by the
// calling thread (serialized per peer); the receiver thread always
// drains, so two ranks flooding each other cannot wedge on full kernel
// buffers.
//
// Failure model: abort() broadcasts an abort frame and wakes local
// waiters; a peer that disappears without a goodbye frame (EOF or reset
// mid-stream) aborts the world — a partially received frame is discarded,
// never delivered, so a crashed peer surfaces as AbortedError, not as a
// truncated message.  shutdown() exchanges goodbye frames so clean exits
// are distinguishable from crashes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.hpp"

namespace v6d::comm {

struct TcpOptions {
  int rank = -1;
  int world = 0;
  /// "host:port,..." listen list or rendezvous directory (see above).
  std::string hosts;
  /// Rendezvous + connect + graceful-teardown budget.
  double timeout_s = 60.0;
  /// Ceiling of the exponential connect backoff.
  double backoff_max_ms = 100.0;
  /// Liveness deadline: a peer from which *nothing* (data, control or
  /// heartbeat frames) arrives for this long is declared lost and the
  /// world aborts with TransportError{kPeerLost, rank}.  0 disables
  /// detection (the default — idle worlds are legal without it).
  double liveness_timeout_s = 0.0;
  /// Heartbeat send period.  0 = derive from the liveness deadline
  /// (a quarter of it), so every configuration that *expects* traffic
  /// also produces it; negative = never send (test hook for simulating
  /// a wedged peer).
  double heartbeat_interval_s = 0.0;
};

class TcpTransport final : public Transport {
 public:
  /// Binds, rendezvouses, dials the mesh and starts the receiver thread.
  /// Throws TransportError when the mesh cannot be established within
  /// options.timeout_s.
  explicit TcpTransport(const TcpOptions& options);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  const char* name() const override { return "tcp"; }
  int rank() const override { return rank_; }
  int world() const override { return world_; }

  void send(int dest, int tag, std::vector<std::uint8_t> payload) override;
  Mailbox& inbox() override { return inbox_; }
  /// Writes a kInternal frame from the payload.
  void send_internal(int dest, int tag,
                     std::vector<std::uint8_t> payload) override;
  Mailbox& internal() override { return internal_; }

  void abort() noexcept override;
  bool aborted() const override {
    return aborted_.load(std::memory_order_acquire);
  }
  void fail_hard() noexcept override;
  void shutdown() override;
  void depart_abruptly() override;
  void rethrow_diagnosis() override;

  /// The port this rank's listener bound (useful with ephemeral ports).
  int port() const { return port_; }

  /// Stop emitting heartbeat frames (test hook): to its peers this rank
  /// now looks wedged — alive at the TCP level but silent — which is
  /// exactly what a liveness deadline exists to catch.
  void debug_suppress_heartbeats() noexcept {
    heartbeats_enabled_.store(false, std::memory_order_relaxed);
  }

 private:
  struct PeerRx;  // per-peer frame reassembly state (tcp_transport.cpp)

  void connect_mesh(const TcpOptions& options);
  void receiver_loop();
  /// Frame write with per-peer serialization; returns false once the
  /// world aborted mid-write.  Throws TransportError on channel failure
  /// (after aborting the world).
  bool write_frame(int dest, std::uint8_t kind, int tag, const void* data,
                   std::size_t bytes);
  /// Receiver-side failure: abort the world, remembering the diagnosis
  /// (fault class, peer, reason) so the next blocking caller can
  /// surface a descriptive TransportError instead of a bare abort.
  void remote_abort(TransportFault fault, int peer,
                    const std::string& why) noexcept;
  /// Best-effort goodbye to every peer.  A channel that fails mid-bye
  /// marks that peer as already departed instead of aborting the world,
  /// and never stops goodbyes to the remaining peers.
  void send_goodbyes() noexcept;
  void wake_receiver() noexcept;
  void close_all() noexcept;

  int rank_ = -1;
  int world_ = 0;
  int port_ = 0;
  double timeout_s_ = 60.0;
  double liveness_timeout_s_ = 0.0;
  double heartbeat_interval_s_ = 0.0;  // resolved; <= 0 means never send

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};        // self-pipe: wakes the poll loop
  std::vector<int> peer_fd_;           // [world]; own rank = -1
  std::vector<std::unique_ptr<std::mutex>> send_mutex_;  // per peer

  Mailbox inbox_;      // user p2p channel (Communicator traffic counters)
  Mailbox internal_;   // collective channel (never in user stats)
  std::atomic<bool> aborted_{false};

  std::mutex state_mutex_;  // guards bye_seen_ / abort_why_ & friends
  std::condition_variable state_cv_;
  std::vector<bool> bye_seen_;         // peer sent its goodbye frame
  std::string abort_why_;              // first diagnosed failure wins
  TransportFault abort_fault_ = TransportFault::kUnknown;
  int abort_peer_ = -1;
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> bye_sent_{false};  // our goodbyes are on the wire
  std::atomic<bool> heartbeats_enabled_{true};
  bool shutdown_done_ = false;
  std::thread receiver_;
};

}  // namespace v6d::comm
