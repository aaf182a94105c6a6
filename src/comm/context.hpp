// Shared state behind a group of simulated ranks (internal header): two
// mailboxes per rank, one for each channel of InProcTransport, the abort
// flag they all observe, and one departed flag per rank.
#pragma once

#include <atomic>
#include <vector>

#include "comm/mailbox.hpp"

namespace v6d::comm {

class Context {
 public:
  explicit Context(int nranks)
      : nranks_(nranks), mailboxes_(nranks), internal_(nranks),
        departed_(static_cast<std::size_t>(nranks)) {
    for (auto* channel : {&mailboxes_, &internal_})
      for (auto& mailbox : *channel) {
        mailbox.set_abort_flag(&aborted_);
        mailbox.set_departed_flags(departed_);
      }
  }

  int size() const { return nranks_; }
  /// `rank`'s user-channel mailbox (Transport::inbox).
  Mailbox& mailbox(int rank) { return mailboxes_[rank]; }
  /// `rank`'s internal-channel mailbox (Transport::internal): the
  /// collectives' messages.
  Mailbox& internal(int rank) { return internal_[rank]; }

  /// Mark the context dead and wake every rank blocked in Mailbox::pop on
  /// either channel; they throw AbortedError.  Called by comm::run when a
  /// rank's body throws, so peers cannot hang forever on messages that
  /// will never come — a collective's included.  Idempotent; the context
  /// is unusable afterwards.
  ///
  /// Memory-order contract (see also mailbox.hpp):
  ///  * The flag flips exactly once; the release half of the acq_rel
  ///    exchange publishes everything the aborting rank wrote before it
  ///    died to any rank that *observes the flag* (the acquire loads in
  ///    Mailbox::pop/try_pop and aborted() below).
  ///  * Visibility alone cannot wake a rank already parked in a condition
  ///    wait, so abort() additionally round-trips each waiter's mutex
  ///    (Mailbox::notify_abort takes the mailbox mutex before notifying).
  ///    That lock/unlock pairs with the predicate re-check under the same
  ///    mutex, closing the set-flag / park-waiter race: a waiter either
  ///    sees the flag in its predicate or is woken by the notify that
  ///    follows the lock.
  ///  * abort() is noexcept and safe to call from any rank thread,
  ///    concurrently with every other context operation.
  void abort() noexcept {
    if (aborted_.exchange(true, std::memory_order_acq_rel)) return;
    for (auto& mailbox : mailboxes_) mailbox.notify_abort();
    for (auto& mailbox : internal_) mailbox.notify_abort();
  }
  /// Acquire load: pairs with the release half of abort()'s exchange.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Mark `rank` departed (its body returned) and wake every blocked pop:
  /// one waiting on a message from `rank` that is not queued can never
  /// complete, so it throws TransportError{kPeerLost, rank}.  Messages
  /// `rank` sent before departing still drain first.  Same flag-then-
  /// wake protocol as abort(): the release store pairs with the acquire
  /// loads in Mailbox::pop/try_pop, and the wake round-trips each
  /// waiter's mutex.
  void depart(int rank) noexcept {
    departed_[static_cast<std::size_t>(rank)].store(true,
                                                    std::memory_order_release);
    for (auto& mailbox : mailboxes_) mailbox.notify_abort();
    for (auto& mailbox : internal_) mailbox.notify_abort();
  }

 private:
  int nranks_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Mailbox> internal_;
  std::atomic<bool> aborted_{false};
  std::vector<std::atomic<bool>> departed_;  // by rank
};

}  // namespace v6d::comm
