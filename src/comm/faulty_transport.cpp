#include "comm/faulty_transport.hpp"

#include <chrono>
#include <string>
#include <thread>

namespace v6d::comm {

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 const FaultPlan& plan)
    : inner_(std::move(inner)), plan_(plan), rng_(plan.seed) {}

FaultyTransport::~FaultyTransport() = default;

void FaultyTransport::send(int dest, int tag,
                           std::vector<std::uint8_t> payload) {
  const long n = sends_++;
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  if (plan_.disconnect_after >= 0 && n >= plan_.disconnect_after) {
    // Crash simulation: the rank vanishes without ceremony.  fail_hard()
    // leaves peers a dead (possibly mid-frame) connection to diagnose.
    inner_->fail_hard();
    throw TransportError(TransportFault::kInjected, dest,
                         "injected disconnect before send #" +
                             std::to_string(n) + " to rank " +
                             std::to_string(dest));
  }
  if (plan_.transient_fail_at >= 0 && n == plan_.transient_fail_at) {
    // Scripted transient outage: the link is down for the next
    // `transient_outage` attempts.  Burn attempts against the retry
    // schedule, sleeping each backoff delay; if the schedule still has
    // budget when the outage ends, the frame goes out exactly once —
    // late, but invisible to the receiver.  Peers were never told, so
    // nothing needs re-synchronizing: this is the idempotent re-send of
    // an undelivered frame within the grace window.
    RetrySchedule schedule(plan_.retry);
    int outage_left = plan_.transient_outage;
    while (outage_left > 0) {
      --outage_left;  // this attempt hit the dead link; frame undelivered
      if (schedule.exhausted()) {
        inner_->abort();
        throw TransportError(
            TransportFault::kInjected, dest,
            "transient fault on send #" + std::to_string(n) + " to rank " +
                std::to_string(dest) + " outlived the retry budget (" +
                std::to_string(schedule.attempts()) + " attempts)");
      }
      ++transient_retries_;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          schedule.next_delay_ms()));
    }
  }
  const bool drop =
      (plan_.drop_after >= 0 && n == plan_.drop_after) ||
      (plan_.drop_prob > 0.0 && uniform(rng_) < plan_.drop_prob);
  if (drop) {
    // A lost message must not strand its receiver in pop(): the only
    // correct surface is a world abort — TransportError here, a clean
    // AbortedError wherever a peer is parked.
    inner_->abort();
    throw TransportError(TransportFault::kInjected, dest,
                         "injected drop of send #" + std::to_string(n) +
                             " to rank " + std::to_string(dest) + " (tag " +
                             std::to_string(tag) + ")");
  }
  if (plan_.fail_send_after >= 0 && n == plan_.fail_send_after) {
    // Short write: the frame went out truncated, so the channel is junk
    // from here on.  Same abort surface as a drop — the bytes that did
    // leave must never be delivered as a message.
    inner_->abort();
    throw TransportError(TransportFault::kInjected, dest,
                         "injected short write on send #" +
                             std::to_string(n) + " to rank " +
                             std::to_string(dest));
  }
  if (plan_.delay_prob > 0.0 && uniform(rng_) < plan_.delay_prob) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan_.delay_ms));
  }
  inner_->send(dest, tag, std::move(payload));
}

void FaultyTransport::shutdown() {
  if (plan_.vanish_after_bye) {
    // Goodbye-then-gone: the rank flushes its goodbyes and drops every
    // connection without waiting for the peers' own goodbyes.
    inner_->depart_abruptly();
    return;
  }
  inner_->shutdown();
}

}  // namespace v6d::comm
