// In-process transport backend: thread ranks sharing one Context.
//
// Both channels move the payload into the destination's mailbox — the
// user channel into Context::mailbox, the internal one into
// Context::internal — so the receiver pops the sender's buffer.  The
// collectives are Communicator's, the same code every backend runs: each
// contribution is copied into the payloads it sends, once per peer.
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

  void send(int dest, int tag, std::vector<std::uint8_t> payload) override {
    ctx_->mailbox(dest).push(rank_, tag, std::move(payload));
  }
  Mailbox& inbox() override { return ctx_->mailbox(rank_); }

  void send_internal(int dest, int tag,
                     std::vector<std::uint8_t> payload) override {
    ctx_->internal(dest).push(rank_, tag, std::move(payload));
  }
  Mailbox& internal() override { return ctx_->internal(rank_); }

  void abort() noexcept override { ctx_->abort(); }
  bool aborted() const override { return ctx_->aborted(); }
  /// The rank is done: peers still waiting on it fail instead of hanging.
  void shutdown() override { ctx_->depart(rank_); }

 private:
  Context* ctx_;
  int rank_;
};

}  // namespace v6d::comm
