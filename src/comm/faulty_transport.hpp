// Fault-injection decorator for any Transport backend.
//
// Wraps an inner transport and perturbs the user send() path according to
// a seeded FaultPlan: messages can be dropped before they reach the wire,
// delayed, truncated ("short write"), or the rank can be disconnected
// abruptly mid-job (inner->fail_hard(), simulating a crash).  Faults are
// deterministic for a given (seed, call sequence), so a failing test case
// replays exactly.
//
// Failure semantics mirror the real thing: a transport that loses a
// message cannot deliver "most of it" or hang the receiver — the fault
// aborts the world and surfaces as TransportError on the faulting rank
// and AbortedError on every parked peer.  The conformance suite asserts
// exactly that: clean errors, never hangs, never partial messages.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "comm/retry.hpp"
#include "comm/transport.hpp"

namespace v6d::comm {

/// What to inject and when.  Counters are per-wrapped-transport (i.e. per
/// rank when used with LaunchOptions::wrap); -1 disables a trigger.
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  /// Probability [0,1] that any given send() is dropped (then aborts).
  double drop_prob = 0.0;
  /// Drop (and abort) on the Nth send(), 0-based.  -1 = never.
  long drop_after = -1;
  /// Probability [0,1] that a send() is delayed by delay_ms first.
  double delay_prob = 0.0;
  double delay_ms = 1.0;
  /// Simulate a short write on the Nth send(): the message is lost
  /// mid-frame and the world aborts.  -1 = never.
  long fail_send_after = -1;
  /// Abrupt disconnect (inner->fail_hard()) on the Nth send() — peers see
  /// a dead connection, possibly with a partial frame.  -1 = never.  This
  /// is the scripted peer-loss-at-message-K schedule.
  long disconnect_after = -1;

  // ---- scripted schedules (deterministic by construction, no dice) ----
  /// Transient outage starting at the Nth send(): that send's link is
  /// down for `transient_outage` consecutive attempts.  The decorator
  /// retries on the `retry` schedule and re-sends the undelivered frame
  /// once the outage clears — inside the retry grace window the fault is
  /// invisible to peers (the frame arrives exactly once, just late).
  /// If the schedule exhausts first, the world aborts with
  /// TransportError{kInjected}.  -1 = never.
  long transient_fail_at = -1;
  /// How many attempts the scripted outage eats before the link heals.
  int transient_outage = 1;
  /// Backoff schedule for transient retries; max_attempts bounds the
  /// grace window (0 = retry forever, which a scripted outage always
  /// outlasts eventually).
  RetryPolicy retry{1.0, 8.0, 2.0, 0.0, 6, 0x5eedu};
  /// Teardown race: shutdown() flushes goodbyes, then drops every
  /// connection immediately (inner->depart_abruptly()) instead of
  /// lingering for the peers' goodbyes — a rank reaped right after its
  /// final barrier.  Peers must see a departure, not a crash.
  bool vanish_after_bye = false;
};

class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, const FaultPlan& plan);
  ~FaultyTransport() override;

  const char* name() const override { return "faulty"; }
  int rank() const override { return inner_->rank(); }
  int world() const override { return inner_->world(); }

  /// Applies the fault plan, then forwards.  Injected drops/short-writes
  /// abort the world and throw TransportError; an injected disconnect
  /// calls inner->fail_hard() and throws TransportError.
  void send(int dest, int tag, std::vector<std::uint8_t> payload) override;
  Mailbox& inbox() override { return inner_->inbox(); }

  // The internal channel (Communicator's collectives) and control flow
  // pass through untouched: the plan targets the p2p data path, where
  // loss is observable per message.
  void send_internal(int dest, int tag,
                     std::vector<std::uint8_t> payload) override {
    inner_->send_internal(dest, tag, std::move(payload));
  }
  Mailbox& internal() override { return inner_->internal(); }

  void abort() noexcept override { inner_->abort(); }
  bool aborted() const override { return inner_->aborted(); }
  void fail_hard() noexcept override { inner_->fail_hard(); }
  /// Honors plan.vanish_after_bye (goodbye-then-drop); otherwise
  /// forwards the graceful teardown.
  void shutdown() override;
  void depart_abruptly() override { inner_->depart_abruptly(); }
  void rethrow_diagnosis() override { inner_->rethrow_diagnosis(); }

  /// Retry attempts burned by scripted transient outages so far.
  int transient_retries() const { return transient_retries_; }

 private:
  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::mt19937_64 rng_;
  long sends_ = 0;
  int transient_retries_ = 0;
};

}  // namespace v6d::comm
