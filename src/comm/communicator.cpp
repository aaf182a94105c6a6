#include "comm/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace v6d::comm {

Communicator::Communicator(Transport& transport)
    : transport_(&transport),
      rank_(transport.rank()),
      bytes_to_(static_cast<std::size_t>(transport.world()), 0),
      msgs_to_(static_cast<std::size_t>(transport.world()), 0) {}

void Communicator::send(int dest, int tag,
                        std::vector<std::uint8_t> payload) {
  const std::size_t bytes = payload.size();
  transport_->send(dest, tag, std::move(payload));
  bytes_sent_ += bytes;
  ++messages_sent_;
  bytes_to_[static_cast<std::size_t>(dest)] += bytes;
  msgs_to_[static_cast<std::size_t>(dest)] += 1;
}

void Communicator::send_bytes(int dest, int tag, const void* data,
                              std::size_t bytes) {
  const auto* first = static_cast<const std::uint8_t*>(data);
  send(dest, tag, std::vector<std::uint8_t>(first, first + bytes));
}

std::uint64_t Communicator::bytes_sent_to(int dest) const {
  return bytes_to_[static_cast<std::size_t>(dest)];
}

std::uint64_t Communicator::messages_sent_to(int dest) const {
  return msgs_to_[static_cast<std::size_t>(dest)];
}

MailboxStats Communicator::recv_stats() const {
  return transport_->inbox().stats();
}

std::pair<std::uint64_t, std::uint64_t> Communicator::received_from(
    int source) const {
  return transport_->inbox().received_from(source);
}

void Communicator::reset_traffic_counters() {
  bytes_sent_ = 0;
  messages_sent_ = 0;
  std::fill(bytes_to_.begin(), bytes_to_.end(), 0);
  std::fill(msgs_to_.begin(), msgs_to_.end(), 0);
}

std::vector<std::uint8_t> Communicator::recv_bytes(int source, int tag) {
  return transport_->inbox().pop(source, tag);
}

bool Communicator::RecvHandle::ready() {
  if (done_) return true;
  done_ = comm_->transport_->inbox().try_pop(source_, tag_, payload_);
  return done_;
}

std::vector<std::uint8_t> Communicator::RecvHandle::wait() {
  if (!done_) payload_ = comm_->transport_->inbox().pop(source_, tag_);
  done_ = false;  // spent: a reused handle must not return stale bytes
  return std::move(payload_);
}

std::vector<std::uint8_t> Communicator::RecvHandle::wait(std::size_t bytes) {
  auto payload = wait();
  if (payload.size() != bytes)
    throw std::runtime_error("comm: recv size mismatch: got " +
                             std::to_string(payload.size()) +
                             " bytes, expected " + std::to_string(bytes));
  return payload;
}

}  // namespace v6d::comm
