// Cross-backend conformance suite for the transport seam.
//
// Every behavioral test is value-parameterized over {inproc, tcp} and runs
// through run_transport, so the two backends are held to one contract:
// per-pair FIFO ordering, zero-length and multi-megabyte payloads,
// out-of-tag-order irecv drains, collectives under concurrent p2p traffic,
// abort propagation into parked waiters, and identical traffic accounting.
// The fault-injection half wraps ranks in FaultyTransport and asserts the
// failure surface: a lost or truncated message ends the job with a clean
// TransportError/AbortedError on every rank — never a hang, never a
// partially delivered message.
//
// v6d-analyze: allow-file(tag-space): conformance tests drive raw low
// tags on isolated per-test worlds; the kFirstUserTag floor governs
// production exchanges.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/faulty_transport.hpp"
#include "comm/runner.hpp"
#include "comm/transport.hpp"

namespace {

using namespace v6d::comm;

LaunchOptions backend_options(const std::string& backend) {
  LaunchOptions options;
  options.backend = backend;
  options.timeout_s = 30.0;
  return options;
}

std::vector<std::uint8_t> pattern_payload(int seed, std::size_t bytes) {
  std::vector<std::uint8_t> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    payload[i] = static_cast<std::uint8_t>((seed * 131 + i * 7) & 0xff);
  return payload;
}

class TransportConformance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TransportConformance, NameMatchesBackend) {
  run_transport(2, backend_options(GetParam()), [&](Communicator& comm) {
    EXPECT_STREQ(comm.transport().name(), GetParam());
    EXPECT_EQ(comm.size(), 2);
  });
}

TEST_P(TransportConformance, FifoOrderingPerPeerPair) {
  const int p = 3;
  const int kMessages = 64;
  run_transport(p, backend_options(GetParam()), [&](Communicator& comm) {
    // Every rank floods every peer on one tag; FIFO per (source, tag)
    // means sequence numbers arrive strictly ascending per sender.
    for (int m = 0; m < kMessages; ++m)
      for (int dest = 0; dest < p; ++dest) {
        if (dest == comm.rank()) continue;
        const std::int32_t seq[2] = {comm.rank(), m};
        comm.send(dest, 7, seq, 2);
      }
    for (int source = 0; source < p; ++source) {
      if (source == comm.rank()) continue;
      for (int m = 0; m < kMessages; ++m) {
        std::int32_t seq[2] = {-1, -1};
        comm.recv(source, 7, seq, 2);
        EXPECT_EQ(seq[0], source);
        EXPECT_EQ(seq[1], m) << "out-of-order from rank " << source;
      }
    }
  });
}

TEST_P(TransportConformance, ZeroLengthAndMultiMegabytePayloads) {
  const std::size_t kBig = 3 * (std::size_t{1} << 20) + 17;  // ~3 MiB, odd
  run_transport(2, backend_options(GetParam()), [&](Communicator& comm) {
    const int peer = 1 - comm.rank();
    const auto big = pattern_payload(comm.rank(), kBig);
    comm.send_bytes(peer, 1, nullptr, 0);
    comm.send_bytes(peer, 2, big.data(), big.size());
    comm.send_bytes(peer, 3, nullptr, 0);

    EXPECT_TRUE(comm.recv_bytes(peer, 1).empty());
    const auto got = comm.recv_bytes(peer, 2);
    ASSERT_EQ(got.size(), kBig);
    EXPECT_EQ(got, pattern_payload(peer, kBig));
    EXPECT_TRUE(comm.recv_bytes(peer, 3).empty());
  });
}

TEST_P(TransportConformance, InterleavedIrecvAndBlockingRecvDrains) {
  run_transport(2, backend_options(GetParam()), [&](Communicator& comm) {
    const int peer = 1 - comm.rank();
    for (int tag = 10; tag <= 14; ++tag) {
      const double value = 100.0 * comm.rank() + tag;
      comm.send(peer, tag, &value, 1);
    }
    // Drain out of tag order, mixing posted handles with blocking recvs;
    // per-(source, tag) queues are independent, so this must not block.
    auto h14 = comm.irecv(peer, 14);
    auto h10 = comm.irecv(peer, 10);
    double v12 = 0.0, v11 = 0.0, v13 = 0.0;
    comm.recv(peer, 12, &v12, 1);
    double v14 = 0.0;
    h14.wait_into(&v14, 1);
    comm.recv(peer, 13, &v13, 1);
    double v10 = 0.0;
    h10.wait_into(&v10, 1);
    comm.recv(peer, 11, &v11, 1);
    EXPECT_DOUBLE_EQ(v10, 100.0 * peer + 10);
    EXPECT_DOUBLE_EQ(v11, 100.0 * peer + 11);
    EXPECT_DOUBLE_EQ(v12, 100.0 * peer + 12);
    EXPECT_DOUBLE_EQ(v13, 100.0 * peer + 13);
    EXPECT_DOUBLE_EQ(v14, 100.0 * peer + 14);
  });
}

TEST_P(TransportConformance, CollectivesUnderConcurrentP2PTraffic) {
  const int p = 3;
  run_transport(p, backend_options(GetParam()), [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() - 1 + p) % p;
    double ring_sum = 0.0;
    for (int round = 0; round < 8; ++round) {
      // p2p in flight...
      const double out = comm.rank() + 1000.0 * round;
      comm.send(next, 40 + round, &out, 1);
      // ...while the whole world does collectives on the same step.
      double reduced = comm.rank() + round;
      comm.allreduce_sum(&reduced, 1);
      EXPECT_DOUBLE_EQ(reduced, p * (p - 1) / 2.0 + p * round);
      int blessed = comm.rank() == round % p ? 99 + round : -1;
      comm.bcast(&blessed, 1, round % p);
      EXPECT_EQ(blessed, 99 + round);
      comm.barrier();
      double in = 0.0;
      comm.recv(prev, 40 + round, &in, 1);
      ring_sum += in;
      EXPECT_DOUBLE_EQ(in, prev + 1000.0 * round);
    }
    EXPECT_DOUBLE_EQ(comm.allreduce_max(ring_sum),
                     comm.allreduce_max(ring_sum));  // world still sane
  });
}

TEST_P(TransportConformance, AlltoallvVariableSizes) {
  const int p = 3;
  run_transport(p, backend_options(GetParam()), [&](Communicator& comm) {
    std::vector<std::vector<std::uint8_t>> send(p);
    for (int dest = 0; dest < p; ++dest)
      send[static_cast<std::size_t>(dest)] = pattern_payload(
          comm.rank() * p + dest,
          static_cast<std::size_t>((comm.rank() + 1) * (dest + 2) * 37));
    const auto recv = comm.alltoallv(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int source = 0; source < p; ++source)
      EXPECT_EQ(recv[static_cast<std::size_t>(source)],
                pattern_payload(
                    source * p + comm.rank(),
                    static_cast<std::size_t>((source + 1) *
                                             (comm.rank() + 2) * 37)));
  });
}

TEST_P(TransportConformance, ReductionsBitIdenticalToSerialSum) {
  // Rank-ordered summation is part of the transport contract: the reduced
  // value must equal the serial left-to-right sum bit for bit.
  const int p = 4;
  run_transport(p, backend_options(GetParam()), [&](Communicator& comm) {
    const double mine = 0.1 * (comm.rank() + 1) + 1e-13 * comm.rank();
    double reduced = mine;
    comm.allreduce_sum(&reduced, 1);
    double serial = 0.0;
    for (int r = 0; r < p; ++r) serial += 0.1 * (r + 1) + 1e-13 * r;
    EXPECT_EQ(reduced, serial);  // exact, not almost-equal
  });
}

TEST_P(TransportConformance, SelfSendDelivers) {
  run_transport(2, backend_options(GetParam()), [&](Communicator& comm) {
    const std::int64_t value = 42 + comm.rank();
    comm.send(comm.rank(), 5, &value, 1);
    std::int64_t got = 0;
    comm.recv(comm.rank(), 5, &got, 1);
    EXPECT_EQ(got, value);
  });
}

TEST_P(TransportConformance, SendTakesItsPayloadOver) {
  // A payload moved into send() arrives byte for byte, and no backend
  // copies it: the in-process receiver, and on every backend the receiver
  // of a self-send, pops the sender's own buffer.  Moved and copied sends
  // count alike.
  const bool shared_memory = std::string(GetParam()) == "inproc";
  std::array<const std::uint8_t*, 2> sent{};
  run_transport(2, backend_options(GetParam()), [&](Communicator& comm) {
    const int me = comm.rank(), peer = 1 - me;
    auto moved = pattern_payload(me, 4099);
    auto to_self = pattern_payload(me + 2, 513);
    const std::uint8_t* self_buffer = to_self.data();
    sent[static_cast<std::size_t>(me)] = moved.data();
    comm.send(peer, 1, std::move(moved));
    comm.send_bytes(peer, 2, self_buffer, to_self.size());
    comm.send(me, 3, std::move(to_self));
    EXPECT_EQ(comm.bytes_sent(), 4099u + 2 * 513u);
    EXPECT_EQ(comm.messages_sent(), 3u);
    EXPECT_EQ(comm.bytes_sent_to(peer), 4099u + 513u);
    EXPECT_EQ(comm.messages_sent_to(peer), 2u);
    comm.barrier();  // both ranks have recorded their buffers
    const auto got = comm.recv_bytes(peer, 1);
    EXPECT_EQ(got, pattern_payload(peer, 4099));
    if (shared_memory) {
      EXPECT_EQ(got.data(), sent[static_cast<std::size_t>(peer)]);
    }
    EXPECT_EQ(comm.recv_bytes(peer, 2), pattern_payload(peer + 2, 513));
    const auto mine = comm.recv_bytes(me, 3);
    EXPECT_EQ(mine, pattern_payload(me + 2, 513));
    EXPECT_EQ(mine.data(), self_buffer);
  });
}

TEST_P(TransportConformance, AbortWhileParkedWakesWaiter) {
  // Rank 1 fails while rank 0 is parked on a message that will never
  // arrive; the abort must wake rank 0 (AbortedError, suppressed by the
  // runner) and the original exception must reach the caller.
  EXPECT_THROW(
      run_transport(2, backend_options(GetParam()),
                    [&](Communicator& comm) {
                      comm.barrier();  // both ranks up before the failure
                      if (comm.rank() == 1)
                        throw std::runtime_error("rank 1 exploded");
                      double never = 0.0;
                      comm.recv(1, 9, &never, 1);  // must not hang
                    }),
      std::runtime_error);
}

TEST_P(TransportConformance, TrafficCountersIdenticalAcrossBackends) {
  // The accounting contract: whatever numbers a pattern of p2p sends and
  // collectives produces in-process, TCP must reproduce.
  const int p = 2;
  auto measure = [&](const std::string& backend) {
    std::vector<std::uint64_t> sent(p), msgs(p), popped(p);
    run_transport(p, backend_options(backend), [&](Communicator& comm) {
      const int peer = 1 - comm.rank();
      const auto payload = pattern_payload(comm.rank(), 1024);
      comm.send_bytes(peer, 1, payload.data(), payload.size());
      comm.send_bytes(peer, 2, payload.data(), 100);
      double x = 1.0;
      comm.allreduce_sum(&x, 1);  // adds 8 to bytes_sent, nothing else
      (void)comm.recv_bytes(peer, 1);
      (void)comm.recv_bytes(peer, 2);
      comm.barrier();
      const auto r = static_cast<std::size_t>(comm.rank());
      sent[r] = comm.bytes_sent();
      msgs[r] = comm.messages_sent();
      popped[r] = comm.recv_stats().bytes_popped;
    });
    return std::make_tuple(sent, msgs, popped);
  };
  EXPECT_EQ(measure("inproc"), measure(GetParam()));
}

TEST_P(TransportConformance, CollectivesAddTheirContributionToSendCounters) {
  // What each collective adds to this rank's send counters: allreduce_*
  // its n * sizeof(T) bytes, bcast its bytes at the root only, allgather
  // its bytes, alltoallv every block's bytes (the self block included)
  // and one message per non-empty block, barrier nothing.  No collective
  // touches the per-peer counters or the mailbox stats.
  const int p = 3;
  run_transport(p, backend_options(GetParam()), [&](Communicator& comm) {
    const int me = comm.rank();
    const MailboxStats recv0 = comm.recv_stats();
    std::uint64_t bytes = comm.bytes_sent(), messages = comm.messages_sent();
    const auto expect_added = [&](std::uint64_t b, std::uint64_t m,
                                  const char* op) {
      EXPECT_EQ(comm.bytes_sent() - bytes, b) << op << " on rank " << me;
      EXPECT_EQ(comm.messages_sent() - messages, m)
          << op << " on rank " << me;
      bytes = comm.bytes_sent();
      messages = comm.messages_sent();
    };

    comm.barrier();
    expect_added(0, 0, "barrier");
    double d[5] = {1, 2, 3, 4, 5};
    comm.allreduce_sum(d, 5);
    expect_added(5 * sizeof(double), 0, "allreduce_sum(double*)");
    float f[3] = {1, 2, 3};
    comm.allreduce_sum(f, 3);
    expect_added(3 * sizeof(float), 0, "allreduce_sum(float*)");
    (void)comm.allreduce_sum(std::int64_t{me});
    expect_added(sizeof(std::int64_t), 0, "allreduce_sum(int64)");
    (void)comm.allreduce_max(1.0 * me);
    expect_added(sizeof(double), 0, "allreduce_max");
    (void)comm.allreduce_min(1.0 * me);
    expect_added(sizeof(double), 0, "allreduce_min");
    std::int32_t word[4] = {me, me, me, me};
    comm.bcast(word, 4, 1);
    expect_added(me == 1 ? sizeof(word) : 0, 0, "bcast");
    const std::int32_t mine[3] = {me, 2 * me, 3 * me};
    (void)comm.allgather(mine, 3);
    expect_added(sizeof(mine), 0, "allgather");
    // Block d holds (me + d) * 7 bytes: rank 0's self block is empty.
    std::vector<std::vector<std::uint8_t>> blocks(p);
    std::uint64_t block_bytes = 0, nonempty = 0;
    for (int dest = 0; dest < p; ++dest) {
      const auto size = static_cast<std::size_t>((me + dest) * 7);
      blocks[static_cast<std::size_t>(dest)] = pattern_payload(dest, size);
      block_bytes += size;
      nonempty += size > 0 ? 1 : 0;
    }
    (void)comm.alltoallv(std::move(blocks));
    expect_added(block_bytes, nonempty, "alltoallv");

    for (int peer = 0; peer < p; ++peer) {
      EXPECT_EQ(comm.bytes_sent_to(peer), 0u);
      EXPECT_EQ(comm.messages_sent_to(peer), 0u);
    }
    const MailboxStats recv1 = comm.recv_stats();
    EXPECT_EQ(recv1.messages_pushed, recv0.messages_pushed);
    EXPECT_EQ(recv1.bytes_pushed, recv0.bytes_pushed);
    EXPECT_EQ(recv1.messages_popped, recv0.messages_popped);
    EXPECT_EQ(recv1.bytes_popped, recv0.bytes_popped);
    EXPECT_EQ(recv1.peak_queue_depth, recv0.peak_queue_depth);
    EXPECT_EQ(recv1.pop_wait_s, recv0.pop_wait_s);
  });
}

// One rank passes a different count to a collective than its peers: the
// world must end with a TransportError from the length check, before any
// rank reads past a payload.
void expect_mismatch_throws(const char* backend,
                            const std::function<void(Communicator&)>& body) {
  EXPECT_THROW(run_transport(3, backend_options(backend), body),
               TransportError);
}

TEST_P(TransportConformance, MismatchedAllgatherCountThrows) {
  expect_mismatch_throws(GetParam(), [](Communicator& comm) {
    const std::vector<std::int32_t> mine(comm.rank() == 1 ? 5 : 2,
                                         comm.rank());
    (void)comm.allgather(mine.data(), mine.size());
  });
}

TEST_P(TransportConformance, MismatchedAllreduceSumCountThrows) {
  expect_mismatch_throws(GetParam(), [](Communicator& comm) {
    std::vector<double> values(comm.rank() == 1 ? 6 : 3, 1.0);
    comm.allreduce_sum(values.data(), values.size());
  });
}

TEST_P(TransportConformance, MismatchedBcastCountThrows) {
  expect_mismatch_throws(GetParam(), [](Communicator& comm) {
    std::vector<std::int32_t> values(comm.rank() == 2 ? 9 : 4, comm.rank());
    comm.bcast(values.data(), values.size(), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values("inproc", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- fault injection --------------------------------------------------

/// LaunchOptions that wrap `victim`'s endpoint in a FaultyTransport.
LaunchOptions faulty_options(const std::string& backend, int victim,
                             const FaultPlan& plan) {
  LaunchOptions options = backend_options(backend);
  options.wrap = [victim, plan](std::unique_ptr<Transport> inner, int rank) {
    if (rank != victim) return inner;
    return std::unique_ptr<Transport>(
        new FaultyTransport(std::move(inner), plan));
  };
  return options;
}

class TransportFaults : public ::testing::TestWithParam<const char*> {};

TEST_P(TransportFaults, DroppedMessageAbortsCleanlyNeverHangs) {
  FaultPlan plan;
  plan.drop_after = 0;  // the very first send is lost
  EXPECT_THROW(
      run_transport(2, faulty_options(GetParam(), 1, plan),
                    [&](Communicator& comm) {
                      comm.barrier();
                      if (comm.rank() == 1) {
                        const double v = 3.0;
                        comm.send(0, 1, &v, 1);  // dropped -> throws
                        FAIL() << "dropped send must not return";
                      }
                      double got = 0.0;
                      comm.recv(1, 1, &got, 1);  // woken, not hung
                      FAIL() << "receiver of a dropped message must abort";
                    }),
      TransportError);
}

TEST_P(TransportFaults, ShortWriteAbortsWithoutPartialDelivery) {
  FaultPlan plan;
  plan.fail_send_after = 1;  // first send intact, second truncated
  EXPECT_THROW(
      run_transport(2, faulty_options(GetParam(), 1, plan),
                    [&](Communicator& comm) {
                      if (comm.rank() == 1) {
                        const auto ok = pattern_payload(1, 512);
                        comm.send_bytes(0, 1, ok.data(), ok.size());
                        comm.send_bytes(0, 2, ok.data(), ok.size());
                        FAIL() << "short write must not return";
                      }
                      // The intact message arrives whole...
                      const auto got = comm.recv_bytes(1, 1);
                      EXPECT_EQ(got, pattern_payload(1, 512));
                      // ...the truncated one is never delivered: this pop
                      // wakes with AbortedError instead of bytes.
                      (void)comm.recv_bytes(1, 2);
                      FAIL() << "truncated message must never be delivered";
                    }),
      TransportError);
}

TEST_P(TransportFaults, DelaysAreBenign) {
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_ms = 2.0;
  run_transport(2, faulty_options(GetParam(), 0, plan),
                [&](Communicator& comm) {
                  const int peer = 1 - comm.rank();
                  for (int m = 0; m < 5; ++m) {
                    const std::int32_t v = 10 * comm.rank() + m;
                    comm.send(peer, m, &v, 1);
                  }
                  for (int m = 0; m < 5; ++m) {
                    std::int32_t v = -1;
                    comm.recv(peer, m, &v, 1);
                    EXPECT_EQ(v, 10 * peer + m);
                  }
                  double sum = comm.rank();
                  comm.allreduce_sum(&sum, 1);
                  EXPECT_DOUBLE_EQ(sum, 1.0);
                });
}

TEST_P(TransportFaults, PeerDisconnectMidJobSurfacesCleanError) {
  // The victim vanishes abruptly (fail_hard: over TCP, a half-written
  // frame then a dead socket).  Survivors must diagnose a dead peer and
  // abort — the partial frame is discarded, never delivered as data.
  FaultPlan plan;
  plan.disconnect_after = 1;  // one good message, then the plug is pulled
  EXPECT_THROW(
      run_transport(3, faulty_options(GetParam(), 2, plan),
                    [&](Communicator& comm) {
                      comm.barrier();
                      if (comm.rank() == 2) {
                        const auto ok = pattern_payload(2, 256);
                        comm.send_bytes(0, 1, ok.data(), ok.size());
                        comm.send_bytes(1, 1, ok.data(), ok.size());
                        FAIL() << "disconnected send must not return";
                      }
                      const auto got = comm.recv_bytes(2, 1);
                      EXPECT_EQ(got, pattern_payload(2, 256));
                      (void)comm.recv_bytes(2, 2);  // never sent
                      FAIL() << "waiting on a dead peer must abort";
                    }),
      TransportError);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportFaults,
                         ::testing::Values("inproc", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
