#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "blocking_fold.hpp"
#include "comm/runner.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo.hpp"
#include "mesh/halo_plan.hpp"

namespace {

using namespace v6d;

// Global analytic value for a (grid, velocity) index.
float cell_value(int gx, int gy, int gz, std::size_t v) {
  return static_cast<float>(gx * 10000 + gy * 100 + gz) +
         static_cast<float>(v) * 1e-4f;
}

vlasov::PhaseSpaceDims local_dims(const mesh::BrickDecomposition& dec,
                                  int nu) {
  vlasov::PhaseSpaceDims dims;
  dims.nx = dec.local_n(0);
  dims.ny = dec.local_n(1);
  dims.nz = dec.local_n(2);
  dims.nux = dims.nuy = dims.nuz = nu;
  return dims;
}

// Every interior block holds its global analytic value.
void fill_global_pattern(vlasov::PhaseSpace& f,
                         const mesh::BrickDecomposition& dec) {
  const auto& d = f.dims();
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        float* blk = f.block(i, j, k);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = cell_value(dec.offset(0) + i, dec.offset(1) + j,
                              dec.offset(2) + k, v);
      }
}

// Exchange `axis` through the plan and check exactly the blocks the
// position sweep along it reads beyond the interior: the axis ghosts at
// interior transverse positions must equal the global periodic field
// (multi-wrap aware, so extents below the ghost width are covered).
void exchange_and_expect_axis_ghosts(mesh::HaloPlan& plan,
                                     vlasov::PhaseSpace& f,
                                     const mesh::BrickDecomposition& dec,
                                     int axis, int rank) {
  plan.begin_axis(f, axis);
  plan.finish_axis(f, axis);
  const auto global = dec.global();
  const int g = f.dims().ghost;
  const auto& ap = plan.axis(axis);
  auto wrap = [](int i, int n) { return ((i % n) + n) % n; };
  for (int a = -g; a < ap.n + g; ++a) {
    if (a >= 0 && a < ap.n) continue;  // interior untouched
    for (int t1 = 0; t1 < ap.t1n; ++t1)
      for (int t2 = 0; t2 < ap.t2n; ++t2) {
        int idx[3];
        idx[axis] = a;
        int tpos = 0;
        for (int t = 0; t < 3; ++t) {
          if (t == axis) continue;
          idx[t] = tpos == 0 ? t1 : t2;
          ++tpos;
        }
        int gidx[3];
        for (int t = 0; t < 3; ++t)
          gidx[t] = wrap(dec.offset(t) + idx[t], global[t]);
        const float* blk = f.block(idx[0], idx[1], idx[2]);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          ASSERT_FLOAT_EQ(blk[v], cell_value(gidx[0], gidx[1], gidx[2], v))
              << "rank " << rank << " axis " << axis << " cell " << idx[0]
              << "," << idx[1] << "," << idx[2];
      }
  }
}

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, PhaseSpaceHaloMatchesGlobalPeriodicField) {
  // Per-axis plan exchange at every rank count: decomposed axes receive
  // the neighbors' faces, undecomposed ones (all of them at p = 1) wrap
  // locally.
  const int p = GetParam();
  const int n_global = 8;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpace f(local_dims(dec, 2), vlasov::PhaseSpaceGeometry{});
    fill_global_pattern(f, dec);
    mesh::HaloPlan plan(cart, f.dims(), 900);
    for (int axis = 0; axis < 3; ++axis)
      exchange_and_expect_axis_ghosts(plan, f, dec, axis, comm.rank());
  });
}

TEST_P(HaloRanks, GridHaloMatchesGlobalField) {
  const int p = GetParam();
  const int n_global = 12;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              2);
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < grid.ny(); ++j)
        for (int k = 0; k < grid.nz(); ++k)
          grid.at(i, j, k) = (dec.offset(0) + i) * 1e4 +
                             (dec.offset(1) + j) * 1e2 + (dec.offset(2) + k);
    mesh::exchange_grid_halo(grid, cart);
    auto wrap = [&](int i) { return ((i % n_global) + n_global) % n_global; };
    for (int i = -2; i < grid.nx() + 2; ++i)
      for (int j = -2; j < grid.ny() + 2; ++j)
        for (int k = -2; k < grid.nz() + 2; ++k) {
          const double expected = wrap(dec.offset(0) + i) * 1e4 +
                                  wrap(dec.offset(1) + j) * 1e2 +
                                  wrap(dec.offset(2) + k);
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected);
        }
  });
}

TEST_P(HaloRanks, FoldHaloAccumulatesDepositsOnce) {
  const int p = GetParam();
  const int n_global = 8;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              1);
    // Every rank deposits 1.0 into *every* cell of its extended region
    // (interior + ghosts).  After folding, each interior cell must hold
    // exactly the number of extended regions that cover its global index.
    for (int i = -1; i < grid.nx() + 1; ++i)
      for (int j = -1; j < grid.ny() + 1; ++j)
        for (int k = -1; k < grid.nz() + 1; ++k) grid.at(i, j, k) = 1.0;
    mesh::GridFoldPlan fold(cart, 940);
    fold.begin(grid);
    fold.finish(grid);

    // Each global cell collects one contribution per covering *image* of
    // every rank's extended region (interior + 1-cell ghost ring); with
    // few ranks per axis the same rank can cover a cell through multiple
    // periodic images (e.g. single-rank axes fold their own ghosts back).
    auto coverage = [&](int gx, int gy, int gz) {
      int count = 0;
      for (int cx = 0; cx < cart.dims()[0]; ++cx)
        for (int cy = 0; cy < cart.dims()[1]; ++cy)
          for (int cz = 0; cz < cart.dims()[2]; ++cz) {
            mesh::BrickDecomposition d2(
                {n_global, n_global, n_global}, cart.dims(), {cx, cy, cz});
            auto images = [&](int g, int axis) {
              int n_img = 0;
              for (int img = -1; img <= 1; ++img) {
                const int local = g + img * n_global - d2.offset(axis);
                if (local >= -1 && local <= d2.local_n(axis)) ++n_img;
              }
              return n_img;
            };
            count += images(gx, 0) * images(gy, 1) * images(gz, 2);
          }
      return count;
    };
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < grid.ny(); ++j)
        for (int k = 0; k < grid.nz(); ++k) {
          const int expected = coverage(dec.offset(0) + i, dec.offset(1) + j,
                                        dec.offset(2) + k);
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected)
              << i << " " << j << " " << k;
        }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRanks, ::testing::Values(1, 2, 4, 8));

TEST(HaloValidation, RejectsDecomposedAxisThinnerThanGhost) {
  // 4 cells split over 4 ranks -> local extent 1 < ghost 2: the pack would
  // read out-of-range interior; the exchange and the fold must refuse
  // instead.  (HaloPlan.RejectsDecomposedAxisThinnerThanGhost covers the
  // phase-space faces.)
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);  // 1 < ghost 2
                  mesh::exchange_grid_halo(grid, cart);
                }),
      std::invalid_argument);

  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);
                  mesh::GridFoldPlan fold(cart, 940);
                  fold.begin(grid);
                  fold.finish(grid);
                }),
      std::invalid_argument);
}

TEST(HaloPlan, UndecomposedAxisThinnerThanGhostWrapsPeriodically) {
  // ny = nz = 2 with ghost 3 (the quasi-1D two_stream shape): the axis
  // ghosts of the undecomposed axes must be the periodic wrap — a
  // self-send of "interior slabs" would read out-of-range cells.
  const int n_global = 8, thin = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({n_global, thin, thin}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpace f(local_dims(dec, 2), vlasov::PhaseSpaceGeometry{});
    fill_global_pattern(f, dec);
    mesh::HaloPlan plan(cart, f.dims(), 900);
    EXPECT_TRUE(plan.axis(0).decomposed);
    EXPECT_FALSE(plan.axis(1).decomposed);
    EXPECT_FALSE(plan.axis(2).decomposed);
    for (int axis = 0; axis < 3; ++axis)
      exchange_and_expect_axis_ghosts(plan, f, dec, axis, comm.rank());
  });
}

TEST(GridFoldPlan, FoldAcrossThinUndecomposedAxesAccumulatesOnce) {
  // Deposit-style fold on an (8, 2, 2) grid split 2 ways along x; the thin
  // y/z axes (extent 2 = ghost 2) wrap multiple times, so the fold must
  // place every ghost contribution on its periodic image exactly once.
  // With all-ones deposits the result is a pure coverage count, and the
  // fold must conserve the deposited total.
  const int nx = 8, thin = 2, ghost = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({nx, thin, thin}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), thin, thin, ghost);
    for (int i = -ghost; i < grid.nx() + ghost; ++i)
      for (int j = -ghost; j < thin + ghost; ++j)
        for (int k = -ghost; k < thin + ghost; ++k) grid.at(i, j, k) = 1.0;
    const double deposited =
        static_cast<double>(grid.nx() + 2 * ghost) * (thin + 2 * ghost) *
        (thin + 2 * ghost);
    mesh::GridFoldPlan fold(cart, 940);
    fold.begin(grid);
    fold.finish(grid);

    // Images of global index g covered by an extended region of extent
    // `local` at `off` along an axis of global size `n` (multi-wrap aware).
    auto images = [&](int g, int n, int off, int local) {
      int count = 0;
      for (int img = -2; img <= 2; ++img) {
        const int local_idx = g + img * n - off;
        if (local_idx >= -ghost && local_idx < local + ghost) ++count;
      }
      return count;
    };
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < thin; ++j)
        for (int k = 0; k < thin; ++k) {
          int expected = 0;
          for (int cx = 0; cx < 2; ++cx) {
            mesh::BrickDecomposition d2({nx, thin, thin}, cart.dims(),
                                        {cx, 0, 0});
            expected += images(dec.offset(0) + i, nx, d2.offset(0),
                               d2.local_n(0)) *
                        images(j, thin, 0, thin) * images(k, thin, 0, thin);
          }
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected)
              << i << " " << j << " " << k;
        }

    // Conservation: nothing deposited is lost or duplicated.
    const double total = comm.allreduce_sum(grid.sum_interior());
    EXPECT_DOUBLE_EQ(total, 2.0 * deposited);
  });
}

// ---------------------------------------------------------------------------
// Exchange plan geometry and bit-identity against the blocking fold
// ---------------------------------------------------------------------------

TEST(HaloPlan, AxisRangesMatchDecomposition) {
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 2, 1});
    mesh::BrickDecomposition dec({8, 8, 8}, cart.dims(), cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);  // 4
    dims.ny = dec.local_n(1);  // 4
    dims.nz = dec.local_n(2);  // 8
    dims.nux = dims.nuy = dims.nuz = 2;
    mesh::HaloPlan plan(cart, dims, 900);

    // x and y are decomposed; z lives wholly on this rank.
    EXPECT_TRUE(plan.axis(0).decomposed);
    EXPECT_TRUE(plan.axis(1).decomposed);
    EXPECT_FALSE(plan.axis(2).decomposed);

    // Interior transverse extents, ascending-axis order.
    EXPECT_EQ(plan.axis(0).n, 4);
    EXPECT_EQ(plan.axis(0).t1n, 4);   // y
    EXPECT_EQ(plan.axis(0).t2n, 8);   // z
    EXPECT_EQ(plan.axis(2).t1n, 4);   // x
    EXPECT_EQ(plan.axis(2).t2n, 4);   // y
    // One face = ghost layers x interior transverse x velocity block.
    EXPECT_EQ(plan.axis(0).face_floats,
              static_cast<std::size_t>(3) * 4 * 8 * 8);
  });
}

TEST(HaloPlan, RejectsDecomposedAxisThinnerThanGhost) {
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  vlasov::PhaseSpaceDims dims;
                  dims.nx = 1;  // < ghost 3 on a decomposed axis
                  dims.ny = dims.nz = 4;
                  dims.nux = dims.nuy = dims.nuz = 2;
                  mesh::HaloPlan plan(cart, dims, 900);
                }),
      std::invalid_argument);
}

TEST(GridFoldPlan, SplitFoldIsBitIdenticalToBlockingFold) {
  // Same deposits, two fold paths: begin/finish (with arbitrary local
  // work between) must reproduce the blocking reference fold exactly —
  // same summation order, so bit-for-bit equality, not just tolerance.
  const int n_global = 8;
  for (int p : {1, 2, 4, 8}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n_global, n_global, n_global},
                                   cart.dims(), cart.coords());
      mesh::Grid3D<double> blocking(dec.local_n(0), dec.local_n(1),
                                    dec.local_n(2), 2);
      for (int i = -2; i < blocking.nx() + 2; ++i)
        for (int j = -2; j < blocking.ny() + 2; ++j)
          for (int k = -2; k < blocking.nz() + 2; ++k)
            blocking.at(i, j, k) =
                0.1 * comm.rank() + 1e-3 * i + 7e-5 * j + 3e-6 * k + 1.0;
      mesh::Grid3D<double> split = blocking;

      test::fold_grid_halo(blocking, cart);

      mesh::GridFoldPlan plan(cart, 940);
      plan.begin(split);
      double sink = 0.0;  // "interior work" between the halves
      for (int w = 0; w < 100; ++w) sink += std::sqrt(1.0 + w);
      plan.finish(split);
      ASSERT_GT(sink, 0.0);

      for (int i = -2; i < blocking.nx() + 2; ++i)
        for (int j = -2; j < blocking.ny() + 2; ++j)
          for (int k = -2; k < blocking.nz() + 2; ++k)
            ASSERT_EQ(split.at(i, j, k), blocking.at(i, j, k))
                << p << " ranks, cell " << i << " " << j << " " << k;
    });
  }
}

TEST(GridFoldPlan, ThinUndecomposedAxesMatchBlockingFold) {
  // The quasi-1D two_stream shape: y/z wrap multiple times locally.
  const int nx = 8, thin = 2;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({nx, thin, thin}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> blocking(dec.local_n(0), thin, thin, 2);
    for (int i = -2; i < blocking.nx() + 2; ++i)
      for (int j = -2; j < thin + 2; ++j)
        for (int k = -2; k < thin + 2; ++k)
          blocking.at(i, j, k) = 1.0 + 0.01 * i + 0.1 * j + 0.3 * k;
    mesh::Grid3D<double> split = blocking;
    test::fold_grid_halo(blocking, cart);
    mesh::GridFoldPlan plan(cart, 940);
    plan.begin(split);
    plan.finish(split);
    for (int i = -2; i < blocking.nx() + 2; ++i)
      for (int j = -2; j < thin + 2; ++j)
        for (int k = -2; k < thin + 2; ++k)
          ASSERT_EQ(split.at(i, j, k), blocking.at(i, j, k));
  });
}

}  // namespace
