// Tag-matched point-to-point mailboxes for the simulated MPI runtime.
//
// Each rank owns one Mailbox.  send() is buffered (never blocks), so halo
// exchange cycles cannot deadlock; recv() blocks until a message with a
// matching (source, tag) arrives.  Message order between a fixed
// (source, tag) pair is FIFO, mirroring MPI's non-overtaking guarantee.
//
// Blocking pops also observe a context-wide abort flag (installed by
// Context): when a peer rank dies, every waiter is woken and throws
// AbortedError instead of blocking forever on a message that will never
// arrive.
//
// Memory-order contract for the abort flag (owned by Context::abort):
//  * The flag is written once, with release semantics; pop/try_pop read
//    it with acquire loads, so a rank that throws AbortedError also sees
//    every write the aborting rank made before dying.
//  * The acquire load alone is only the *visibility* half.  The *wakeup*
//    half is notify_abort(): it acquires and releases the mailbox mutex
//    before notifying, which orders the flag write before any waiter's
//    next predicate evaluation (predicates run under that mutex).  A
//    waiter therefore either observes the flag when it re-checks, or has
//    not yet parked and will observe it on first check — the flag cannot
//    be set "between" a final predicate check and the park.
//  * Queued messages outrank the abort: a pop whose message is already
//    buffered returns it even after abort, so completed exchanges drain
//    deterministically during unwind.
//
// The same protocol covers a source that departed (its rank body returned,
// Context::depart): a pop from it with nothing queued throws
// TransportError{kPeerLost, source} instead of blocking forever.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace v6d::comm {

/// Thrown out of blocking comm operations when the owning Context has been
/// aborted (a peer rank threw).  comm::run suppresses these in favour of
/// the original error.
class AbortedError : public std::runtime_error {
 public:
  AbortedError()
      : std::runtime_error("comm: context aborted (a peer rank failed)") {}
};

/// Monotonic receive-side traffic counters, snapshot under the mailbox
/// mutex (stats()).  "pushed" counts what peers delivered, "popped" what
/// the owning rank consumed; `pop_wait_s` is the total wall time blocked
/// inside pop() (including waits that ended in AbortedError).  Counters
/// only ever grow for the lifetime of the Context — callers that want
/// per-interval numbers take deltas of snapshots.
struct MailboxStats {
  std::uint64_t messages_pushed = 0;
  std::uint64_t bytes_pushed = 0;
  std::uint64_t messages_popped = 0;
  std::uint64_t bytes_popped = 0;
  std::uint64_t peak_queue_depth = 0;  // high-water mark of queued messages
  double pop_wait_s = 0.0;
};

class Mailbox {
 public:
  void push(int source, int tag, std::vector<std::uint8_t> payload);
  /// Blocks until a matching message arrives; returns its payload.
  /// Throws AbortedError if the context is aborted while waiting, and
  /// TransportError{kPeerLost, source} if `source` departed with no
  /// matching message queued.
  std::vector<std::uint8_t> pop(int source, int tag);
  /// Non-blocking pop: moves a matching message into `out` and returns
  /// true, or returns false if none is queued.  Throws like pop() once the
  /// context is aborted or `source` departed, so completion-handle pollers
  /// cannot spin on a message that will never arrive.
  bool try_pop(int source, int tag, std::vector<std::uint8_t>& out);
  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag);

  /// Install the context-wide abort flag consulted by blocking pops.
  /// Must be called before any rank thread touches the mailbox.
  void set_abort_flag(const std::atomic<bool>* abort) { abort_ = abort; }
  /// Install the per-rank departed flags (indexed by source rank), under
  /// the same rule.
  void set_departed_flags(std::span<const std::atomic<bool>> departed) {
    departed_ = departed;
  }
  /// Wake every blocked pop so it can observe the abort flag and the
  /// departed flags.
  void notify_abort();

  /// Number of live (source, tag) queues.  pop() erases a queue it has
  /// drained, so long runs cycling through step-scoped tags do not grow
  /// the map without bound; tests assert on this.
  std::size_t queue_count() const;

  /// Consistent snapshot of the traffic counters.
  MailboxStats stats() const;
  /// (messages, bytes) successfully popped that arrived from `source`.
  std::pair<std::uint64_t, std::uint64_t> received_from(int source) const;

 private:
  using Key = std::pair<int, int>;  // (source, tag)
  bool aborted() const {
    return abort_ && abort_->load(std::memory_order_acquire);
  }
  bool departed(int source) const {
    const auto r = static_cast<std::size_t>(source);
    return r < departed_.size() &&
           departed_[r].load(std::memory_order_acquire);
  }
  /// Throws the error of a pop from `source` that can never complete.
  [[noreturn]] void throw_unreachable(int source) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::deque<std::vector<std::uint8_t>>> queues_;
  const std::atomic<bool>* abort_ = nullptr;
  std::span<const std::atomic<bool>> departed_;
  // Traffic accounting, all guarded by mutex_.
  MailboxStats stats_;
  std::uint64_t depth_ = 0;  // currently queued messages
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> per_source_;
};

}  // namespace v6d::comm
