#include "comm/mailbox.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "comm/transport.hpp"

namespace v6d::comm {

namespace {
double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
}  // namespace

void Mailbox::push(int source, int tag, std::vector<std::uint8_t> payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.messages_pushed += 1;
    stats_.bytes_pushed += payload.size();
    depth_ += 1;
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, depth_);
    queues_[{source, tag}].push_back(std::move(payload));
  }
  cv_.notify_all();
}

std::vector<std::uint8_t> Mailbox::pop(int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{source, tag};
  const auto wait_start = std::chrono::steady_clock::now();
  cv_.wait(lock, [&] {
    auto it = queues_.find(key);
    return (it != queues_.end() && !it->second.empty()) || aborted() ||
           departed(source);
  });
  // Wait time is charged even when the wait ends in an abort: the blocked
  // interval is real and trace consumers want to see it.
  stats_.pop_wait_s +=
      seconds_between(wait_start, std::chrono::steady_clock::now());
  auto it = queues_.find(key);
  if (it == queues_.end() || it->second.empty()) throw_unreachable(source);
  std::vector<std::uint8_t> payload = std::move(it->second.front());
  it->second.pop_front();
  stats_.messages_popped += 1;
  stats_.bytes_popped += payload.size();
  depth_ -= 1;
  auto& from = per_source_[source];
  from.first += 1;
  from.second += payload.size();
  // Trim drained queues: tags are often step- or phase-scoped, so keeping
  // empty deques around grows the map unboundedly over long runs.
  if (it->second.empty()) queues_.erase(it);
  return payload;
}

bool Mailbox::try_pop(int source, int tag, std::vector<std::uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queues_.find({source, tag});
  if (it == queues_.end() || it->second.empty()) {
    if (aborted() || departed(source)) throw_unreachable(source);
    return false;
  }
  out = std::move(it->second.front());
  it->second.pop_front();
  stats_.messages_popped += 1;
  stats_.bytes_popped += out.size();
  depth_ -= 1;
  auto& from = per_source_[source];
  from.first += 1;
  from.second += out.size();
  if (it->second.empty()) queues_.erase(it);
  return true;
}

bool Mailbox::probe(int source, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queues_.find({source, tag});
  return it != queues_.end() && !it->second.empty();
}

void Mailbox::throw_unreachable(int source) const {
  if (aborted()) throw AbortedError();
  throw TransportError(TransportFault::kPeerLost, source,
                       "rank " + std::to_string(source) +
                           " returned without sending a message this rank "
                           "waits for");
}

void Mailbox::notify_abort() {
  // Lock to pair with the waiter's predicate check (no lost wakeups).
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

std::size_t Mailbox::queue_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_.size();
}

MailboxStats Mailbox::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::pair<std::uint64_t, std::uint64_t> Mailbox::received_from(
    int source) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = per_source_.find(source);
  if (it == per_source_.end()) return {0, 0};
  return it->second;
}

}  // namespace v6d::comm
