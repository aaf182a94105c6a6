// Shared state behind a group of simulated ranks (internal header): two
// mailboxes per rank, one for each channel of InProcTransport, and the
// abort flag they all observe.
#pragma once

#include <atomic>
#include <vector>

#include "comm/mailbox.hpp"

namespace v6d::comm {

class Context {
 public:
  explicit Context(int nranks)
      : nranks_(nranks), mailboxes_(nranks), internal_(nranks) {
    for (auto& mailbox : mailboxes_) mailbox.set_abort_flag(&aborted_);
    for (auto& mailbox : internal_) mailbox.set_abort_flag(&aborted_);
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

 private:
  int nranks_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Mailbox> internal_;
  std::atomic<bool> aborted_{false};
};

}  // namespace v6d::comm
