#include "comm/inproc_transport.hpp"

#include <cstring>

namespace v6d::comm {

namespace {

/// Every staged collective has the shape: publish local buffer, barrier,
/// consume peers' buffers, barrier.  The trailing barrier keeps a fast
/// rank from re-staging before a slow one has finished reading.
template <class Fn>
void staged_collective(Context* ctx, int rank, const void* local,
                       std::size_t bytes, Fn&& consume) {
  ctx->stage(rank, local, bytes);
  ctx->barrier().arrive_and_wait();
  consume();
  ctx->barrier().arrive_and_wait();
}

/// StageView over the Context's published pointers: zero-copy reads of
/// every rank's contribution, valid between the two barriers.
class ContextStageView final : public StageView {
 public:
  explicit ContextStageView(const Context* ctx) : ctx_(ctx) {}
  const void* data(int rank) const override { return ctx_->staged_ptr(rank); }
  std::size_t size(int rank) const override {
    return ctx_->staged_bytes(rank);
  }

 private:
  const Context* ctx_;
};

}  // namespace

void InProcTransport::gather_all(
    const void* local, std::size_t bytes,
    const std::function<void(const StageView&)>& consume) {
  staged_collective(ctx_, rank_, local, bytes,
                    [&] { consume(ContextStageView(ctx_)); });
}

void InProcTransport::bcast(void* data, std::size_t bytes, int root) {
  staged_collective(ctx_, rank_, data, bytes, [&] {
    if (rank_ != root) std::memcpy(data, ctx_->staged_ptr(root), bytes);
  });
}

std::vector<std::vector<std::uint8_t>> InProcTransport::alltoallv(
    const std::vector<std::vector<std::uint8_t>>& send) {
  const int n = ctx_->size();
  std::vector<std::vector<std::uint8_t>> recv(static_cast<std::size_t>(n));
  // Stages a pointer to the whole send vector (bytes = 0): peers copy the
  // one block addressed to them straight out of the sender's memory.
  staged_collective(ctx_, rank_, &send, 0, [&] {
    for (int r = 0; r < n; ++r) {
      const auto* peer =
          static_cast<const std::vector<std::vector<std::uint8_t>>*>(
              ctx_->staged_ptr(r));
      recv[static_cast<std::size_t>(r)] =
          (*peer)[static_cast<std::size_t>(rank_)];
    }
  });
  return recv;
}

}  // namespace v6d::comm
