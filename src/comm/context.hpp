// Shared state behind a group of simulated ranks (internal header).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "comm/mailbox.hpp"

namespace v6d::comm {

/// Reusable generation barrier (std::barrier without completion step,
/// usable an unbounded number of times).  Supports abort(): every current
/// and future waiter throws AbortedError instead of blocking on ranks
/// that will never arrive.
///
/// All barrier state (generation counter, waiter count, aborted flag) is
/// guarded by one mutex; the mutex's release/acquire edges are what order
/// pre-barrier writes of one rank before post-barrier reads of another
/// (the collectives' staged pointers rely on exactly this).  abort() sets
/// the flag under the same mutex, so a waiter's predicate re-check cannot
/// miss it.
class Barrier {
 public:
  explicit Barrier(int count) : count_(count), waiting_(0), generation_(0) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) throw AbortedError();
    const std::uint64_t gen = generation_;
    if (++waiting_ == count_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen || aborted_; });
      if (generation_ == gen) {
        // Woken by abort before the barrier completed.
        --waiting_;
        throw AbortedError();
      }
    }
  }

  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  int count_;
  int waiting_;
  std::uint64_t generation_;
  bool aborted_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
};

class Context {
 public:
  explicit Context(int nranks)
      : nranks_(nranks),
        mailboxes_(nranks),
        barrier_(nranks),
        stage_(nranks, nullptr),
        stage_bytes_(nranks, 0) {
    for (auto& mailbox : mailboxes_) mailbox.set_abort_flag(&aborted_);
  }

  int size() const { return nranks_; }
  Mailbox& mailbox(int rank) { return mailboxes_[rank]; }
  Barrier& barrier() { return barrier_; }

  /// Mark the context dead and wake every rank blocked in Mailbox::pop or
  /// Barrier::arrive_and_wait; they throw AbortedError.  Called by
  /// comm::run when a rank's body throws, so peers cannot hang forever on
  /// messages or barrier arrivals that will never come.  Idempotent; the
  /// context is unusable afterwards.
  ///
  /// Memory-order contract (see also mailbox.hpp):
  ///  * The flag flips exactly once; the release half of the acq_rel
  ///    exchange publishes everything the aborting rank wrote before it
  ///    died to any rank that *observes the flag* (the acquire loads in
  ///    Mailbox::pop/try_pop and aborted() below).
  ///  * Visibility alone cannot wake a rank already parked in a condition
  ///    wait, so abort() additionally round-trips each waiter's mutex
  ///    (Barrier::abort takes the barrier mutex; Mailbox::notify_abort
  ///    takes the mailbox mutex before notifying).  That lock/unlock
  ///    pairs with the predicate re-check under the same mutex, closing
  ///    the set-flag / park-waiter race: a waiter either sees the flag in
  ///    its predicate or is woken by the notify that follows the lock.
  ///  * abort() is noexcept and safe to call from any rank thread,
  ///    concurrently with every other context operation.
  void abort() noexcept {
    if (aborted_.exchange(true, std::memory_order_acq_rel)) return;
    barrier_.abort();
    for (auto& mailbox : mailboxes_) mailbox.notify_abort();
  }
  /// Acquire load: pairs with the release half of abort()'s exchange.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Pointer staging area used by the collectives: every rank publishes a
  /// pointer, synchronizes, reads peers' pointers, synchronizes again.
  void stage(int rank, const void* ptr, std::size_t bytes) {
    stage_[rank] = ptr;
    stage_bytes_[rank] = bytes;
  }
  const void* staged_ptr(int rank) const { return stage_[rank]; }
  std::size_t staged_bytes(int rank) const { return stage_bytes_[rank]; }

 private:
  int nranks_;
  std::vector<Mailbox> mailboxes_;
  Barrier barrier_;
  std::atomic<bool> aborted_{false};
  std::vector<const void*> stage_;
  std::vector<std::size_t> stage_bytes_;
};

}  // namespace v6d::comm
