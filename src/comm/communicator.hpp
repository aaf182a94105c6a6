// Simulated MPI: a message-passing runtime over pluggable transports.
//
// Substitutes for MPI on Fugaku (see "Deviations from the paper" in
// docs/ARCHITECTURE.md).  The API deliberately mirrors the MPI subset the
// paper's code needs (blocking tagged p2p, barrier, allreduce, bcast,
// allgather, alltoallv, Cartesian topology), so porting to real MPI is
// mechanical.  What a "rank" physically is belongs
// to the Transport underneath (transport.hpp): threads of one process
// (InProcTransport, the default under comm::run) or one OS process per
// rank over TCP sockets (TcpTransport, the `transport=tcp` driver path).
// The collectives are written once, here (collectives.cpp), as messages
// on the transport's internal channel, so every backend runs the same
// collective code.  All traffic is counted per rank, and the scaling
// benches feed those measured volumes into the alpha-beta network model
// (perfmodel.hpp) to extrapolate to the paper's node counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/transport.hpp"

namespace v6d::comm {

class Communicator {
 public:
  /// Wrap one rank's transport endpoint.  The transport must outlive the
  /// communicator (comm::run and the driver own both).
  explicit Communicator(Transport& transport);

  int rank() const { return rank_; }
  int size() const { return transport_->world(); }

  // ---- point-to-point (blocking, buffered sends) ----
  // A message is its own buffer: send() takes the payload over and the
  // transport delivers it without a copy, so an exchange packs straight
  // into the payload it sends, and a receiver reads the payload it pops
  // in place.  Payloads come from operator new, whose alignment (16
  // bytes) covers any scalar element type.
  void send(int dest, int tag, std::vector<std::uint8_t> payload);
  /// Copy-in send of borrowed bytes: the one place a payload is copied.
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);
  std::vector<std::uint8_t> recv_bytes(int source, int tag);

  // ---- non-blocking receive (completion handles) ----
  // Sends are buffered and never block, so the asynchronous half of an
  // overlapped exchange is the receive: irecv() records a pending
  // (source, tag) match that the caller completes after doing useful work.
  // Handles on the same (source, tag) complete in post order (the mailbox
  // is FIFO per pair).  wait() observes the context abort flag, so a peer
  // dying mid-overlap wakes the waiter with AbortedError.
  class RecvHandle {
   public:
    RecvHandle() = default;
    bool valid() const { return comm_ != nullptr; }
    /// Non-blocking completion test; caches the payload when it arrives.
    bool ready();
    /// Blocks until the message arrives and returns its payload; the
    /// handle is spent afterwards.
    std::vector<std::uint8_t> wait();
    /// wait() for a payload of exactly `bytes` bytes: the one length check
    /// of every sized receive.  Throws std::runtime_error on a mismatch,
    /// before the caller reads any of it.
    std::vector<std::uint8_t> wait(std::size_t bytes);
    /// Sized wait() + typed copy-out.
    template <class T>
    void wait_into(T* data, std::size_t count) {
      const auto payload = wait(count * sizeof(T));
      std::memcpy(data, payload.data(), payload.size());
    }

   private:
    friend class Communicator;
    RecvHandle(Communicator* comm, int source, int tag)
        : comm_(comm), source_(source), tag_(tag) {}
    Communicator* comm_ = nullptr;
    int source_ = 0, tag_ = 0;
    bool done_ = false;
    std::vector<std::uint8_t> payload_;
  };

  /// Post a non-blocking receive for (source, tag).
  RecvHandle irecv(int source, int tag) {
    return RecvHandle(this, source, tag);
  }

  template <class T>
  void send(int dest, int tag, const T* data, std::size_t count) {
    send_bytes(dest, tag, data, count * sizeof(T));
  }
  template <class T>
  void recv(int source, int tag, T* data, std::size_t count) {
    irecv(source, tag).wait_into(data, count);
  }

  // ---- collectives (all ranks must call in matching order) ----
  // Each call is a set of messages on the transport's internal channel
  // under the next collective sequence tag: none addressed to this rank,
  // every received length checked (TransportError on a mismatch, before
  // anything is read), contributions read in rank order.
  void barrier();

  /// Element-wise sum-reduction of `n` values in place across all ranks.
  /// Summation reads contributions in rank order, so the floating-point
  /// result is bit-identical across transports.
  void allreduce_sum(double* data, std::size_t n);
  void allreduce_sum(float* data, std::size_t n);
  double allreduce_sum(double x) {
    allreduce_sum(&x, 1);
    return x;
  }
  double allreduce_max(double x);
  double allreduce_min(double x);
  std::int64_t allreduce_sum(std::int64_t x);

  void bcast_bytes(void* data, std::size_t bytes, int root);
  template <class T>
  void bcast(T* data, std::size_t count, int root) {
    bcast_bytes(data, count * sizeof(T), root);
  }

  /// Gathers `count` elements from every rank; result (size*count) valid on
  /// every rank (allgather semantics).
  template <class T>
  std::vector<T> allgather(const T* data, std::size_t count) {
    std::vector<T> out(static_cast<std::size_t>(size()) * count);
    allgather_bytes(data, count * sizeof(T), out.data());
    return out;
  }

  /// Variable all-to-all over byte buffers: block i of `send` goes to
  /// rank i, block j of the result arrived from rank j (this rank's own
  /// block is moved across).  Block lengths are the caller's to check.
  std::vector<std::vector<std::uint8_t>> alltoallv(
      std::vector<std::vector<std::uint8_t>> send);

  // ---- traffic accounting ----
  // The send counters count every point-to-point send, and each
  // collective adds what this rank contributes to it: allreduce_* adds
  // its n * sizeof(T) bytes, bcast its bytes at the root only, allgather
  // its bytes, and alltoallv every block's bytes (the self block
  // included) and one message per non-empty block.  None of that is
  // per-peer traffic: bytes_sent_to/messages_sent_to count p2p sends
  // only.  Collectives travel on the internal channel, so they never
  // appear in the mailbox stats (recv_stats, received_from).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  /// (bytes, messages) this rank sent to `dest`.
  std::uint64_t bytes_sent_to(int dest) const;
  std::uint64_t messages_sent_to(int dest) const;
  /// Receive-side counters: this rank's mailbox stats (delivered/consumed
  /// messages and bytes, queue high-water mark, blocked-in-pop seconds).
  MailboxStats recv_stats() const;
  /// (messages, bytes) this rank consumed that `source` sent it.
  std::pair<std::uint64_t, std::uint64_t> received_from(int source) const;
  /// Zero the send-side counters (benches isolate measured sections).
  /// Mailbox stats are monotonic for the transport lifetime and are *not*
  /// reset — interval consumers take snapshots and subtract.
  void reset_traffic_counters();

  Transport& transport() { return *transport_; }

 private:
  void allgather_bytes(const void* data, std::size_t bytes, void* out);
  /// Sends `bytes` at `local` to every peer and returns every rank's
  /// contribution, indexed by rank (this rank's own a copy of `local`).
  std::vector<std::vector<std::uint8_t>> contributions(const void* local,
                                                       std::size_t bytes);
  /// The next collective's sequence tag: collectives run in matching
  /// order on every rank, so the tags agree.
  int next_collective_tag() { return static_cast<int>(collective_seq_++); }
  /// Internal-channel receive; a pop woken by an abort surfaces this
  /// endpoint's diagnosis (a lost peer, a framing violation) first.
  std::vector<std::uint8_t> pop_internal(int source, int tag);
  /// pop_internal() of a payload that must be exactly `bytes` long.
  std::vector<std::uint8_t> pop_internal(int source, int tag,
                                         std::size_t bytes);

  Transport* transport_;
  int rank_;
  std::uint32_t collective_seq_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::vector<std::uint64_t> bytes_to_;  // per-peer send counters
  std::vector<std::uint64_t> msgs_to_;
};

/// Spawn `nranks` threads each running fn(comm) over the in-process
/// transport.  Exceptions from rank threads are collected and the first is
/// rethrown on the caller.
void run(int nranks, const std::function<void(Communicator&)>& fn);

}  // namespace v6d::comm
