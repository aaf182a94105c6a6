// Collectives, written once over the transport's internal channel.  Each
// call takes the next collective sequence tag, never sends to its own
// rank, checks every received length (TransportError on a mismatch,
// before a byte of it is read) and reads contributions in rank order, so
// reductions are bit-identical across backends.  The messages are the
// same on every backend; over TCP they are its internal frames.
#include <algorithm>
#include <cstring>
#include <string>

#include "comm/communicator.hpp"

namespace v6d::comm {

namespace {

std::vector<std::uint8_t> copy_of(const void* data, std::size_t bytes) {
  const auto* first = static_cast<const std::uint8_t*>(data);
  return std::vector<std::uint8_t>(first, first + bytes);
}

/// Element `i` of a payload of T values, copied out of its bytes.
template <class T>
T element(const std::vector<std::uint8_t>& payload, std::size_t i) {
  T value{};
  std::memcpy(&value, payload.data() + i * sizeof(T), sizeof(T));
  return value;
}

}  // namespace

std::vector<std::uint8_t> Communicator::pop_internal(int source, int tag) {
  try {
    return transport_->internal().pop(source, tag);
  } catch (const AbortedError&) {
    transport_->rethrow_diagnosis();
    throw;
  }
}

std::vector<std::uint8_t> Communicator::pop_internal(int source, int tag,
                                                     std::size_t bytes) {
  auto payload = pop_internal(source, tag);
  if (payload.size() != bytes)
    throw TransportError("collective size mismatch from rank " +
                         std::to_string(source) + ": got " +
                         std::to_string(payload.size()) + ", expected " +
                         std::to_string(bytes));
  return payload;
}

void Communicator::barrier() {
  // Rank 0 hears from every peer, then releases them all.
  const int tag = next_collective_tag();
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) pop_internal(r, tag, 0);
    for (int r = 1; r < size(); ++r) transport_->send_internal(r, tag, {});
  } else {
    transport_->send_internal(0, tag, {});
    pop_internal(0, tag, 0);
  }
}

std::vector<std::vector<std::uint8_t>> Communicator::contributions(
    const void* local, std::size_t bytes) {
  const int tag = next_collective_tag();
  for (int r = 0; r < size(); ++r)
    if (r != rank_) transport_->send_internal(r, tag, copy_of(local, bytes));
  std::vector<std::vector<std::uint8_t>> all(
      static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r)
    all[static_cast<std::size_t>(r)] =
        r == rank_ ? copy_of(local, bytes) : pop_internal(r, tag, bytes);
  return all;
}

namespace {

template <class T>
void sum_in_rank_order(const std::vector<std::vector<std::uint8_t>>& all,
                       T* data, std::size_t n) {
  std::fill(data, data + n, T(0));
  for (const auto& payload : all)
    for (std::size_t i = 0; i < n; ++i) data[i] += element<T>(payload, i);
}

}  // namespace

void Communicator::allreduce_sum(double* data, std::size_t n) {
  sum_in_rank_order(contributions(data, n * sizeof(double)), data, n);
  bytes_sent_ += n * sizeof(double);
}

void Communicator::allreduce_sum(float* data, std::size_t n) {
  sum_in_rank_order(contributions(data, n * sizeof(float)), data, n);
  bytes_sent_ += n * sizeof(float);
}

std::int64_t Communicator::allreduce_sum(std::int64_t x) {
  sum_in_rank_order(contributions(&x, sizeof(x)), &x, 1);
  bytes_sent_ += sizeof(std::int64_t);
  return x;
}

double Communicator::allreduce_max(double x) {
  for (const auto& payload : contributions(&x, sizeof(x)))
    x = std::max(x, element<double>(payload, 0));
  bytes_sent_ += sizeof(double);
  return x;
}

double Communicator::allreduce_min(double x) {
  for (const auto& payload : contributions(&x, sizeof(x)))
    x = std::min(x, element<double>(payload, 0));
  bytes_sent_ += sizeof(double);
  return x;
}

void Communicator::bcast_bytes(void* data, std::size_t bytes, int root) {
  const int tag = next_collective_tag();
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != rank_) transport_->send_internal(r, tag, copy_of(data, bytes));
    bytes_sent_ += bytes;
  } else {
    const auto payload = pop_internal(root, tag, bytes);
    if (bytes > 0) std::memcpy(data, payload.data(), bytes);
  }
}

void Communicator::allgather_bytes(const void* data, std::size_t bytes,
                                   void* out) {
  auto* dst = static_cast<std::uint8_t*>(out);
  for (const auto& payload : contributions(data, bytes)) {
    if (bytes > 0) std::memcpy(dst, payload.data(), bytes);
    dst += bytes;
  }
  bytes_sent_ += bytes;
}

std::vector<std::vector<std::uint8_t>> Communicator::alltoallv(
    std::vector<std::vector<std::uint8_t>> send) {
  for (const auto& block : send) {
    bytes_sent_ += block.size();
    if (!block.empty()) ++messages_sent_;
  }
  const int tag = next_collective_tag();
  for (int r = 0; r < size(); ++r)
    if (r != rank_)
      transport_->send_internal(r, tag,
                                std::move(send[static_cast<std::size_t>(r)]));
  std::vector<std::vector<std::uint8_t>> recv(
      static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r)
    recv[static_cast<std::size_t>(r)] =
        r == rank_ ? std::move(send[static_cast<std::size_t>(r)])
                   : pop_internal(r, tag);
  return recv;
}

}  // namespace v6d::comm
