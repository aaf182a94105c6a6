#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "blocking_fold.hpp"
#include "comm/runner.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo_plan.hpp"
#include "vlasov/sl_mpp5.hpp"

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
// position sweep along it reads beyond the interior, at interior
// transverse positions: the returned faces on a decomposed axis, the
// line's own periodic image (null faces) on an undecomposed one.  Either
// must equal the global periodic field (multi-wrap aware, so extents
// below the ghost width are covered).
void expect_axis_ghosts(const mesh::HaloPlan& plan,
                        const vlasov::PhaseSpace& f,
                        const vlasov::AxisFaces& faces,
                        const mesh::BrickDecomposition& dec, int axis,
                        int rank) {
  const auto& ap = plan.axis(axis);
  ASSERT_EQ(faces.lo != nullptr, ap.decomposed) << "axis " << axis;
  ASSERT_EQ(faces.hi != nullptr, ap.decomposed) << "axis " << axis;
  const auto global = dec.global();
  const int g = vlasov::kStencilGhost;
  auto wrap = [](int i, int n) { return ((i % n) + n) % n; };
  for (int layer = 0; layer < g; ++layer)
    for (int t1 = 0; t1 < ap.t1n; ++t1)
      for (int t2 = 0; t2 < ap.t2n; ++t2)
        for (const int a : {layer - g, ap.n + layer}) {
          int idx[3];
          idx[axis] = wrap(a, ap.n);
          int tpos = 0;
          for (int t = 0; t < 3; ++t) {
            if (t == axis) continue;
            idx[t] = tpos == 0 ? t1 : t2;
            ++tpos;
          }
          const float* face = a < 0 ? faces.lo : faces.hi;
          const float* blk =
              face ? face + ((static_cast<std::size_t>(layer) * ap.t1n + t1) *
                                 ap.t2n +
                             t2) *
                                f.block_size()
                   : f.block(idx[0], idx[1], idx[2]);
          int gidx[3];
          for (int t = 0; t < 3; ++t)
            gidx[t] = wrap(dec.offset(t) + idx[t], global[t]);
          gidx[axis] = wrap(dec.offset(axis) + a, global[axis]);
          for (std::size_t v = 0; v < f.block_size(); ++v)
            ASSERT_FLOAT_EQ(blk[v], cell_value(gidx[0], gidx[1], gidx[2], v))
                << "rank " << rank << " axis " << axis << " ghost cell " << a
                << " transverse " << t1 << "," << t2;
        }
}

void exchange_and_expect_axis_ghosts(mesh::HaloPlan& plan,
                                     vlasov::PhaseSpace& f,
                                     const mesh::BrickDecomposition& dec,
                                     int axis, int rank) {
  plan.begin_axis(f, axis);
  expect_axis_ghosts(plan, f, plan.finish_axis(axis), dec, axis, rank);
}

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, PhaseSpaceHaloMatchesGlobalPeriodicField) {
  // Per-axis plan exchange at every rank count: decomposed axes receive
  // the neighbors' faces, undecomposed ones (all of them at p = 1) return
  // null faces and the sweep wraps inside the brick.
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
    mesh::GridFillPlan fill(cart, grid, 920);
    fill.begin(grid);
    fill.finish(grid);
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
    mesh::GridFoldPlan fold(cart, grid, 940);
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
  // read out-of-range interior; the fill and the fold plans must refuse
  // at construction instead.  (HaloPlan.RejectsDecomposedAxisThinnerThanGhost
  // covers the phase-space faces.)
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);  // 1 < ghost 2
                  mesh::GridFillPlan fill(cart, grid, 920);
                }),
      std::invalid_argument);

  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);
                  mesh::GridFoldPlan fold(cart, grid, 940);
                }),
      std::invalid_argument);
}

TEST(HaloValidation, ThinAxisRejectedBeforeAnyMessage) {
  // 2x1x2 ranks with one thin (1 < ghost 2) and one healthy decomposed
  // axis, placed so the chain reaches the healthy one first: the fold
  // runs z -> x, the fill x -> z.  A plan that validated each axis as it
  // went would post the healthy axis' faces before throwing; every rank
  // must instead throw before sending anything.
  std::array<int, 4> fold_sent{}, fill_sent{};
  fold_sent.fill(-1);
  fill_sent.fill(-1);
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 2});
    const auto r = static_cast<std::size_t>(comm.rank());
    mesh::Grid3D<double> thin_x(1, 8, 4, 2), thin_z(4, 8, 1, 2);
    try {
      mesh::GridFoldPlan fold(cart, thin_x, 940);
      fold.begin(thin_x);
      fold.finish(thin_x);
    } catch (const std::invalid_argument&) {
      fold_sent[r] = static_cast<int>(comm.bytes_sent());
    }
    try {
      mesh::GridFillPlan fill(cart, thin_z, 920);
      fill.begin(thin_z);
      fill.finish(thin_z);
    } catch (const std::invalid_argument&) {
      fill_sent[r] = static_cast<int>(comm.bytes_sent());
    }
  });
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(fold_sent[r], 0) << "rank " << r;
    EXPECT_EQ(fill_sent[r], 0) << "rank " << r;
  }
}

TEST(HaloPlan, UndecomposedAxisThinnerThanGhostWrapsPeriodically) {
  // ny = nz = 2 with ghost 3 (the quasi-1D two_stream shape): the ghosts
  // the sweep reads on the undecomposed axes must be the periodic wrap
  // (null faces, the modulo in the sweep) — a self-send of "interior
  // slabs" would read out-of-range cells.
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

// The faces own their received payloads, and the plan keeps none: the
// faces one finish_axis returned still hold their neighbors' cells after
// the next exchange of the same axis has come and gone.
TEST(HaloPlan, FacesOutliveTheNextFinish) {
  const int n_global = 8;
  comm::run(2, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 1, 1});
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpace f(local_dims(dec, 2), vlasov::PhaseSpaceGeometry{});
    fill_global_pattern(f, dec);
    mesh::HaloPlan plan(cart, f.dims(), 900);
    plan.begin_axis(f, 0);
    const vlasov::AxisFaces first = plan.finish_axis(0);
    const vlasov::PhaseSpace pattern = f;
    std::fill(f.raw(), f.raw() + f.raw_size(), -1.0f);
    plan.begin_axis(f, 0);
    const vlasov::AxisFaces second = plan.finish_axis(0);
    ASSERT_NE(second.lo, nullptr);
    EXPECT_EQ(second.lo[0], -1.0f);
    expect_axis_ghosts(plan, pattern, first, dec, 0, comm.rank());
  });
}

// A received face is length-checked before it is read: rank 1 sends rank 0
// a face one element short on the tag rank 0 finishes first (axis 0,
// dir 0), and finish_axis() must throw.  The dir-1 face is whole, so a
// finish without the check would return rather than wait forever.
TEST(HaloPlan, FinishRejectsAFaceOfTheWrongLength) {
  EXPECT_THROW(
      comm::run(2,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {2, 1, 1});
                  mesh::BrickDecomposition dec({8, 4, 4}, cart.dims(),
                                               cart.coords());
                  vlasov::PhaseSpace f(local_dims(dec, 2),
                                       vlasov::PhaseSpaceGeometry{});
                  mesh::HaloPlan plan(cart, f.dims(), 900);
                  if (comm.rank() == 1) {
                    const std::vector<float> face(plan.axis(0).face_floats);
                    comm.send(0, 900, face.data(), face.size() - 1);
                    comm.send(0, 901, face.data(), face.size());
                    return;
                  }
                  plan.begin_axis(f, 0);
                  (void)plan.finish_axis(0);
                }),
      std::runtime_error);
}

// The same for the deposit fold: its x faces are 2 ghost layers of the
// 4 x 4 interior (y and z are folded first).
TEST(GridFoldPlan, FinishRejectsAFaceOfTheWrongLength) {
  EXPECT_THROW(
      comm::run(2,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {2, 1, 1});
                  mesh::BrickDecomposition dec({8, 4, 4}, cart.dims(),
                                               cart.coords());
                  mesh::Grid3D<double> grid(dec.local_n(0), 4, 4, 2);
                  mesh::GridFoldPlan fold(cart, grid, 940);
                  if (comm.rank() == 1) {
                    const std::vector<double> face(2 * 4 * 4);
                    comm.send(0, 940, face.data(), face.size() - 1);
                    comm.send(0, 941, face.data(), face.size());
                    return;
                  }
                  fold.begin(grid);
                  fold.finish(grid);
                }),
      std::runtime_error);
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
    mesh::GridFoldPlan fold(cart, grid, 940);
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

      mesh::GridFoldPlan plan(cart, split, 940);
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
    mesh::GridFoldPlan plan(cart, split, 940);
    plan.begin(split);
    plan.finish(split);
    for (int i = -2; i < blocking.nx() + 2; ++i)
      for (int j = -2; j < thin + 2; ++j)
        for (int k = -2; k < thin + 2; ++k)
          ASSERT_EQ(split.at(i, j, k), blocking.at(i, j, k));
  });
}

}  // namespace
