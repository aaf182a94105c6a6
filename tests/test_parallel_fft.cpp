#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/runner.hpp"
#include "fft/fft3d.hpp"
#include "fft/parallel_fft.hpp"

namespace {

using namespace v6d;
using fft::cplx;

std::vector<cplx> global_field(int n, unsigned seed) {
  std::vector<cplx> x(static_cast<std::size_t>(n) * n * n);
  unsigned state = seed;
  for (auto& v : x) {
    state = state * 1664525u + 1013904223u;
    const double re = (state % 2000) / 1000.0 - 1.0;
    state = state * 1664525u + 1013904223u;
    const double im = (state % 2000) / 1000.0 - 1.0;
    v = cplx(re, im);
  }
  return x;
}

class ParallelFftRanks : public ::testing::TestWithParam<int> {};

// The x-slab of the global field that `pfft` owns.
std::vector<cplx> local_slab(const std::vector<cplx>& field,
                             const fft::ParallelFft3D& pfft) {
  const std::size_t plane = static_cast<std::size_t>(pfft.n()) * pfft.n();
  const auto first = field.begin() + static_cast<std::ptrdiff_t>(
                                         pfft.x_offset() * plane);
  return std::vector<cplx>(
      first, first + static_cast<std::ptrdiff_t>(pfft.local_nx() * plane));
}

bool same_bits(const cplx& a, const cplx& b) {
  return std::memcmp(&a, &b, sizeof(cplx)) == 0;
}

// Both classes run fft::transform_axis over the same lines, so the
// distributed spectrum equals the serial one bit for bit at every rank
// count (at P = 3 the n = 16 grid splits 6/5/5).
TEST_P(ParallelFftRanks, MatchesSerialSpectrum) {
  const int p = GetParam();
  const int n = 16;
  const auto field = global_field(n, 77);

  // Serial reference.
  auto serial = field;
  fft::Fft3D serial_fft(n, n, n);
  serial_fft.forward(serial.data());

  comm::run(p, [&](comm::Communicator& comm) {
    fft::ParallelFft3D pfft(comm, n);
    auto local = local_slab(field, pfft);
    pfft.forward(local);
    int differing = 0;
    pfft.for_each_mode(local, [&](int kx, int ky, int kz, cplx& v) {
      const cplx ref =
          serial[(static_cast<std::size_t>(kx) * n + ky) * n + kz];
      if (!same_bits(v, ref)) ++differing;
    });
    EXPECT_EQ(differing, 0) << "rank " << comm.rank() << " of " << p;
  });
}

TEST_P(ParallelFftRanks, RoundTripRestoresField) {
  const int p = GetParam();
  const int n = 12;  // non-divisible by most p: exercises remainder slabs
  const auto field = global_field(n, 3);

  // Serial reference: the same forward and inverse through fft::Fft3D.
  auto serial = field;
  fft::Fft3D serial_fft(n, n, n);
  serial_fft.forward(serial.data());
  serial_fft.inverse_normalized(serial.data());

  comm::run(p, [&](comm::Communicator& comm) {
    fft::ParallelFft3D pfft(comm, n);
    auto local = local_slab(field, pfft);
    pfft.forward(local);
    pfft.inverse_normalized(local);
    const auto want = local_slab(field, pfft);
    const auto serial_back = local_slab(serial, pfft);
    ASSERT_EQ(local.size(), want.size());
    for (std::size_t q = 0; q < local.size(); ++q) {
      ASSERT_LT(std::abs(local[q] - want[q]), 1e-11) << "cell " << q;
      ASSERT_TRUE(same_bits(local[q], serial_back[q])) << "cell " << q;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelFftRanks,
                         ::testing::Values(1, 2, 3, 4));

TEST(ParallelFft, CommVolumeGrowsWithRankCount) {
  // The defining scaling property: per-rank alltoall volume ~ n^3/p, so
  // total traffic stays ~ n^3 per transpose while latency count grows.
  const int n = 16;
  std::uint64_t bytes_2 = 0, bytes_4 = 0;
  for (int p : {2, 4}) {
    std::uint64_t total = 0;
    std::mutex m;
    comm::run(p, [&](comm::Communicator& comm) {
      fft::ParallelFft3D pfft(comm, n);
      std::vector<cplx> local(
          static_cast<std::size_t>(pfft.local_nx()) * n * n,
          cplx(1.0, 0.0));
      comm.reset_traffic_counters();
      pfft.forward(local);
      std::lock_guard<std::mutex> lock(m);
      total += comm.bytes_sent();
    });
    (p == 2 ? bytes_2 : bytes_4) = total;
  }
  EXPECT_GT(bytes_2, 0u);
  // Total transpose traffic is roughly constant in p (each element moves
  // once); allow generous slack for self-sends bookkeeping.
  EXPECT_LT(bytes_4, bytes_2 * 3);
  EXPECT_GT(bytes_4, bytes_2 / 3);
}

// Passes everything through to the wrapped endpoint, except that every
// internal-channel message to rank 1 leaves one byte short, in a fresh
// allocation of exactly that size (so an unchecked read overruns it).
// Wrapping rank 0 of a ParallelFft3D::forward, that message is rank 0's
// transpose block.
class ShortBlockToRank1 final : public comm::Transport {
 public:
  explicit ShortBlockToRank1(std::unique_ptr<comm::Transport> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  int rank() const override { return inner_->rank(); }
  int world() const override { return inner_->world(); }
  void send(int dest, int tag, std::vector<std::uint8_t> payload) override {
    // v6d-analyze: allow(tag-space): a pass-through decorator; the tag is whatever its caller chose
    inner_->send(dest, tag, std::move(payload));
  }
  comm::Mailbox& inbox() override { return inner_->inbox(); }
  void send_internal(int dest, int tag,
                     std::vector<std::uint8_t> payload) override {
    if (dest == 1)
      payload = std::vector<std::uint8_t>(payload.begin(), payload.end() - 1);
    inner_->send_internal(dest, tag, std::move(payload));
  }
  comm::Mailbox& internal() override { return inner_->internal(); }
  void abort() noexcept override { inner_->abort(); }
  bool aborted() const override { return inner_->aborted(); }

 private:
  std::unique_ptr<comm::Transport> inner_;
};

// A received transpose block is length-checked before it is read: rank 1
// gets rank 0's block one byte short, and forward() must throw.
TEST(ParallelFft, TransposeRejectsABlockOfTheWrongLength) {
  const int n = 8;
  comm::LaunchOptions options;
  options.wrap = [](std::unique_ptr<comm::Transport> inner, int rank) {
    if (rank != 0) return inner;
    return std::unique_ptr<comm::Transport>(
        new ShortBlockToRank1(std::move(inner)));
  };
  EXPECT_THROW(
      comm::run_transport(2, options,
                          [&](comm::Communicator& comm) {
                            fft::ParallelFft3D pfft(comm, n);
                            std::vector<cplx> local(
                                static_cast<std::size_t>(pfft.local_nx()) *
                                    n * n,
                                cplx(1.0, 0.0));
                            pfft.forward(local);
                          }),
      std::runtime_error);
}

}  // namespace
