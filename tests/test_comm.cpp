#include <gtest/gtest.h>
// v6d-analyze: allow-file(tag-space): conformance tests drive raw low tags on isolated per-test worlds; the kFirstUserTag floor governs production exchanges

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/cart.hpp"
#include "comm/communicator.hpp"
#include "comm/perfmodel.hpp"

namespace {

using namespace v6d::comm;

class CommRanks : public ::testing::TestWithParam<int> {};

TEST_P(CommRanks, PointToPointRing) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() - 1 + p) % p;
    const double payload = 100.0 + comm.rank();
    comm.send(next, 1, &payload, 1);
    double got = 0.0;
    comm.recv(prev, 1, &got, 1);
    EXPECT_DOUBLE_EQ(got, 100.0 + prev);
  });
}

TEST_P(CommRanks, AllreduceSumMatchesSerial) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    std::vector<double> data(8);
    for (int i = 0; i < 8; ++i) data[static_cast<std::size_t>(i)] = comm.rank() * 10.0 + i;
    comm.allreduce_sum(data.data(), data.size());
    for (int i = 0; i < 8; ++i) {
      double expected = 0.0;
      for (int r = 0; r < p; ++r) expected += r * 10.0 + i;
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(i)], expected);
    }
  });
}

TEST_P(CommRanks, AllreduceMinMax) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     p - 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_min(static_cast<double>(comm.rank())),
                     0.0);
  });
}

TEST_P(CommRanks, BroadcastFromEveryRoot) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      int value = comm.rank() == root ? 555 + root : -1;
      comm.bcast(&value, 1, root);
      EXPECT_EQ(value, 555 + root);
    }
  });
}

TEST_P(CommRanks, AllgatherOrdersByRank) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    const std::int32_t mine[2] = {comm.rank(), comm.rank() * comm.rank()};
    const auto all = comm.allgather(mine, 2);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * r);
    }
  });
}

TEST_P(CommRanks, AlltoallvVariableSizes) {
  const int p = GetParam();
  run(p, [&](Communicator& comm) {
    std::vector<std::vector<std::uint8_t>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(comm.rank() + d + 1),
          static_cast<std::uint8_t>(comm.rank() * 16 + d));
    const auto recv = comm.alltoallv(send);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(),
                static_cast<std::size_t>(s + comm.rank() + 1));
      for (auto byte : recv[static_cast<std::size_t>(s)])
        EXPECT_EQ(byte, static_cast<std::uint8_t>(s * 16 + comm.rank()));
    }
  });
}

TEST_P(CommRanks, BarrierSeparatesPhases) {
  const int p = GetParam();
  std::atomic<int> phase_one{0};
  run(p, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase_one.load(), p);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommRanks, ::testing::Values(1, 2, 3, 4, 8));

TEST(Comm, TrafficCountersTrackBytes) {
  run(2, [&](Communicator& comm) {
    comm.reset_traffic_counters();
    const double payload[4] = {1, 2, 3, 4};
    comm.send(1 - comm.rank(), 9, payload, 4);
    double sink[4];
    comm.recv(1 - comm.rank(), 9, sink, 4);
    EXPECT_EQ(comm.bytes_sent(), 4 * sizeof(double));
    EXPECT_EQ(comm.messages_sent(), 1u);
  });
}

// Scripted all-to-all exchange with exact, deterministic traffic: every
// rank sends 3 messages of 8/16/24 bytes to every peer, so send-side and
// mailbox-side counters must agree to the byte.
void exchange_with_exact_counts(int p) {
  run(p, [&](Communicator& comm) {
    comm.barrier();
    const auto recv0 = comm.recv_stats();
    comm.barrier();  // nobody sends before every rank snapshots

    const std::uint8_t fill = static_cast<std::uint8_t>(comm.rank());
    std::vector<std::uint8_t> buf(24, fill);
    for (int peer = 0; peer < p; ++peer) {
      if (peer == comm.rank()) continue;
      for (int m = 1; m <= 3; ++m)
        comm.send(peer, 200 + m, buf.data(),
                  static_cast<std::size_t>(8 * m));
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == comm.rank()) continue;
      for (int m = 1; m <= 3; ++m) {
        const auto payload = comm.recv_bytes(peer, 200 + m);
        ASSERT_EQ(payload.size(), static_cast<std::size_t>(8 * m));
        EXPECT_EQ(payload[0], static_cast<std::uint8_t>(peer));
      }
    }

    const auto peers = static_cast<std::uint64_t>(p - 1);
    EXPECT_EQ(comm.messages_sent(), 3 * peers);
    EXPECT_EQ(comm.bytes_sent(), (8u + 16u + 24u) * peers);
    for (int peer = 0; peer < p; ++peer) {
      if (peer == comm.rank()) {
        EXPECT_EQ(comm.messages_sent_to(peer), 0u);
        EXPECT_EQ(comm.bytes_sent_to(peer), 0u);
      } else {
        EXPECT_EQ(comm.messages_sent_to(peer), 3u);
        EXPECT_EQ(comm.bytes_sent_to(peer), 48u);
        const auto [msgs, bytes] = comm.received_from(peer);
        EXPECT_EQ(msgs, 3u);
        EXPECT_EQ(bytes, 48u);
      }
    }
    // Every rank popped everything it was sent, so the mailbox deltas are
    // exact (pushes happen-before the pops that drained them).
    const auto recv1 = comm.recv_stats();
    EXPECT_EQ(recv1.messages_popped - recv0.messages_popped, 3 * peers);
    EXPECT_EQ(recv1.bytes_popped - recv0.bytes_popped, 48 * peers);
    EXPECT_EQ(recv1.messages_pushed - recv0.messages_pushed, 3 * peers);
    EXPECT_EQ(recv1.bytes_pushed - recv0.bytes_pushed, 48 * peers);
    if (p > 1) {
      EXPECT_GE(recv1.peak_queue_depth, 1u);
    }
  });
}

TEST(Comm, ExchangeCountsAreExactTwoRanks) { exchange_with_exact_counts(2); }
TEST(Comm, ExchangeCountsAreExactFourRanks) { exchange_with_exact_counts(4); }

TEST(Comm, RecvWaitTimeAccumulates) {
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const double value = 1.5;
      comm.send(1, 3, &value, 1);
    } else {
      const double before = comm.recv_stats().pop_wait_s;
      double got = 0.0;
      comm.recv(0, 3, &got, 1);
      EXPECT_DOUBLE_EQ(got, 1.5);
      // The blocking recv waited for most of the sender's sleep.
      EXPECT_GT(comm.recv_stats().pop_wait_s - before, 0.02);
    }
  });
}

TEST(Comm, ResetClearsSendSideOnlyMailboxStatsAreMonotonic) {
  run(2, [&](Communicator& comm) {
    const double payload = 7.0;
    comm.send(1 - comm.rank(), 11, &payload, 1);
    double sink = 0.0;
    comm.recv(1 - comm.rank(), 11, &sink, 1);
    EXPECT_GT(comm.bytes_sent(), 0u);
    const auto before = comm.recv_stats();
    comm.reset_traffic_counters();
    EXPECT_EQ(comm.bytes_sent(), 0u);
    EXPECT_EQ(comm.messages_sent(), 0u);
    EXPECT_EQ(comm.bytes_sent_to(1 - comm.rank()), 0u);
    // The mailbox view is a lifetime total; reset must not rewind it.
    const auto after = comm.recv_stats();
    EXPECT_EQ(after.messages_popped, before.messages_popped);
    EXPECT_EQ(after.bytes_popped, before.bytes_popped);
    EXPECT_GE(after.messages_popped, 1u);
  });
}

TEST(Comm, ExceptionInRankPropagates) {
  EXPECT_THROW(run(2,
                   [&](Communicator& comm) {
                     comm.barrier();
                     if (comm.rank() == 1)
                       throw std::runtime_error("rank failure");
                   }),
               std::runtime_error);
}

TEST(Comm, ThrowingRankWakesPeerBlockedInRecv) {
  // Rank 0 blocks on a message rank 1 will never send; without the abort
  // path, join() would hang forever.  The original error must surface.
  try {
    run(2, [&](Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
      double sink = 0.0;
      comm.recv(1, 42, &sink, 1);  // never satisfied
      FAIL() << "recv from a dead rank must not return";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
}

TEST(Comm, ThrowingRankWakesPeersBlockedInBarrier) {
  try {
    run(4, [&](Communicator& comm) {
      if (comm.rank() == 3) throw std::runtime_error("rank 3 died");
      comm.barrier();  // can never complete: rank 3 will not arrive
      FAIL() << "barrier without a dead rank's arrival must not complete";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 3 died");
  }
}

TEST(Comm, ThrowingRankWakesPeerBlockedInCollective) {
  // Collectives are messages on the internal channel; a dead rank must
  // abort them too, and the first real error wins over the unwind noise.
  try {
    run(2, [&](Communicator& comm) {
      if (comm.rank() == 0) throw std::runtime_error("rank 0 died");
      comm.allreduce_sum(1.0);
      FAIL() << "allreduce with a dead rank must not complete";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
}

TEST(Mailbox, TrimsDrainedQueues) {
  Mailbox mailbox;
  EXPECT_EQ(mailbox.queue_count(), 0u);
  // Many distinct (source, tag) pairs, as a long run cycling through
  // phase-scoped tags produces.
  for (int tag = 0; tag < 64; ++tag)
    mailbox.push(0, tag, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(mailbox.queue_count(), 64u);
  for (int tag = 0; tag < 64; ++tag) {
    const auto payload = mailbox.pop(0, tag);
    EXPECT_EQ(payload.size(), 3u);
  }
  // Drained queues are erased, not kept as empty deques.
  EXPECT_EQ(mailbox.queue_count(), 0u);

  // FIFO order within a queue survives the trim logic.
  mailbox.push(2, 7, std::vector<std::uint8_t>{1});
  mailbox.push(2, 7, std::vector<std::uint8_t>{2});
  EXPECT_EQ(mailbox.queue_count(), 1u);
  EXPECT_EQ(mailbox.pop(2, 7)[0], 1);
  EXPECT_EQ(mailbox.pop(2, 7)[0], 2);
  EXPECT_EQ(mailbox.queue_count(), 0u);
}

TEST(Mailbox, TryPopIsNonBlockingAndFifo) {
  Mailbox mailbox;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(mailbox.try_pop(0, 5, out));
  mailbox.push(0, 5, std::vector<std::uint8_t>{7});
  mailbox.push(0, 5, std::vector<std::uint8_t>{8});
  ASSERT_TRUE(mailbox.try_pop(0, 5, out));
  EXPECT_EQ(out[0], 7);
  ASSERT_TRUE(mailbox.try_pop(0, 5, out));
  EXPECT_EQ(out[0], 8);
  EXPECT_FALSE(mailbox.try_pop(0, 5, out));
  EXPECT_EQ(mailbox.queue_count(), 0u);
}

TEST(Comm, SizedReceivesRejectAPayloadOfTheWrongLength) {
  run(1, [&](Communicator& comm) {
    const double two[2] = {1.0, 2.0};
    comm.send(0, 5, two, 2);
    EXPECT_THROW((void)comm.irecv(0, 5).wait(sizeof(double)),
                 std::runtime_error);
    comm.send(0, 5, two, 2);
    double one = 0.0;
    EXPECT_THROW(comm.recv(0, 5, &one, 1), std::runtime_error);
    EXPECT_EQ(one, 0.0);  // rejected before anything was copied
  });
}

TEST(Comm, RecvHandleCompletesAfterOverlappedWork) {
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      // Post the receive *before* doing "interior work"; the peer's send
      // lands while we compute, so wait() returns without blocking.
      auto handle = comm.irecv(1, 9);
      comm.barrier();  // peer sends before this barrier
      double value = 0.0;
      handle.wait_into(&value, 1);
      EXPECT_DOUBLE_EQ(value, 3.5);
    } else {
      const double value = 3.5;
      comm.send(0, 9, &value, 1);
      comm.barrier();
    }
  });
}

TEST(Comm, RecvHandlesCompleteInPostOrder) {
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      auto first = comm.irecv(1, 4);
      auto second = comm.irecv(1, 4);
      EXPECT_EQ(second.wait()[0], 1);  // completion order == post order,
      EXPECT_EQ(first.wait()[0], 2);   // regardless of wait() order
    } else {
      const std::uint8_t a = 1, b = 2;
      comm.send(0, 4, &a, 1);
      comm.send(0, 4, &b, 1);
    }
  });
}

TEST(Comm, RecvHandleReadyDoesNotBlock) {
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      auto handle = comm.irecv(1, 11);
      EXPECT_FALSE(handle.ready());  // nothing sent yet
      comm.barrier();
      while (!handle.ready()) {
      }  // arrives without this rank ever blocking
      EXPECT_EQ(handle.wait()[0], 5);
    } else {
      comm.barrier();
      const std::uint8_t v = 5;
      comm.send(0, 11, &v, 1);
    }
  });
}

TEST(Comm, ThrowingRankWakesPeerBlockedInHandleWait) {
  // The async-handle abort regression: a rank dying mid-overlap (between a
  // peer's irecv and its wait) must wake the waiter, and the original
  // error must surface instead of a hang or AbortedError.
  try {
    run(2, [&](Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("rank 1 died mid-overlap");
      auto handle = comm.irecv(1, 77);  // never satisfied
      handle.wait();
      FAIL() << "wait() on a dead rank's message must not return";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died mid-overlap");
  }
}

TEST(CartTopology, CoordsRoundTrip) {
  run(8, [&](Communicator& comm) {
    CartTopology cart(comm, {2, 2, 2});
    const auto c = cart.coords();
    EXPECT_EQ(cart.rank_of(c), comm.rank());
    // All coords within dims.
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_GE(c[static_cast<std::size_t>(axis)], 0);
      EXPECT_LT(c[static_cast<std::size_t>(axis)], 2);
    }
  });
}

TEST(CartTopology, NeighborsArePeriodic) {
  run(4, [&](Communicator& comm) {
    CartTopology cart(comm, {4, 1, 1});
    const auto nbr = cart.neighbors(0);
    const int me = cart.coords()[0];
    EXPECT_EQ(cart.coords_of(nbr[0])[0], (me + 3) % 4);
    EXPECT_EQ(cart.coords_of(nbr[1])[0], (me + 1) % 4);
    // Degenerate axes are self-neighbors.
    const auto nbr_y = cart.neighbors(1);
    EXPECT_EQ(nbr_y[0], comm.rank());
    EXPECT_EQ(nbr_y[1], comm.rank());
  });
}

TEST(CartTopology, ChooseDimsFactorizes) {
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16, 24, 27, 36, 64, 96, 144}) {
    const auto dims = CartTopology::choose_dims(p);
    EXPECT_EQ(dims[0] * dims[1] * dims[2], p) << "p=" << p;
    EXPECT_GE(dims[0], dims[1]);
    EXPECT_GE(dims[1], dims[2]);
    // Near-cubic: max/min ratio bounded for highly composite counts.
    if (p == 8) {
      EXPECT_EQ(dims[0], 2);
    }
    if (p == 64) {
      EXPECT_EQ(dims[0], 4);
    }
  }
}

TEST(PerfModel, TimesScaleWithVolumeAndLatency) {
  NetworkModel net;
  net.alpha = 1e-6;
  net.beta = 1e9;
  EXPECT_DOUBLE_EQ(net.message_time(0), 1e-6);
  EXPECT_NEAR(net.message_time(1000000), 1e-6 + 1e-3, 1e-12);
  EXPECT_GT(net.allreduce_time(1024, 8), net.allreduce_time(2, 8));
  EXPECT_GT(net.alltoall_time(64, 1 << 20), net.alltoall_time(8, 1 << 20));
  EXPECT_DOUBLE_EQ(net.allreduce_time(1, 8), 0.0);
}

}  // namespace
