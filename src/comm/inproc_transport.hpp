// In-process transport backend: thread ranks sharing one Context.
//
// This is the pre-seam runtime verbatim, just spoken through the
// Transport interface: point-to-point payloads move into the destination's
// Mailbox, and the collectives use the Context's zero-copy
// pointer staging area (publish local pointer, barrier, read peers,
// barrier) — the consume callback reads each rank's bytes in place, so
// extracting the seam costs the hot reductions nothing.
#pragma once

#include "comm/context.hpp"
#include "comm/transport.hpp"

namespace v6d::comm {

class InProcTransport final : public Transport {
 public:
  /// One endpoint of `ctx`'s world.  The Context must outlive every
  /// transport built on it (comm::run owns both).
  InProcTransport(Context* ctx, int rank) : ctx_(ctx), rank_(rank) {}

  const char* name() const override { return "inproc"; }
  int rank() const override { return rank_; }
  int world() const override { return ctx_->size(); }

  /// Moves the payload into the destination mailbox: the receiver pops
  /// the sender's buffer.
  void send(int dest, int tag, std::vector<std::uint8_t> payload) override {
    ctx_->mailbox(dest).push(rank_, tag, std::move(payload));
  }
  Mailbox& inbox() override { return ctx_->mailbox(rank_); }

  void barrier() override { ctx_->barrier().arrive_and_wait(); }
  void gather_all(
      const void* local, std::size_t bytes,
      const std::function<void(const StageView&)>& consume) override;
  void bcast(void* data, std::size_t bytes, int root) override;
  std::vector<std::vector<std::uint8_t>> alltoallv(
      const std::vector<std::vector<std::uint8_t>>& send) override;

  void abort() noexcept override { ctx_->abort(); }
  bool aborted() const override { return ctx_->aborted(); }

  Context* context() { return ctx_; }

 private:
  Context* ctx_;
  int rank_;
};

}  // namespace v6d::comm
