// Distributed execution path: decomposition planning, brick <-> slab
// redistribution, N-rank vs world-1 equivalence of full driver runs,
// overlap=on/off equivalence (state and traffic), distributed moments,
// conservation, and per-rank checkpoint shard resume.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runner.hpp"
#include "driver/distributed.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"
#include "gravity/poisson.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo_plan.hpp"
#include "parallel/decomp_plan.hpp"
#include "parallel/field_exchange.hpp"
#include "vlasov/moments.hpp"

namespace {

using namespace v6d;

driver::SimulationConfig make_cfg(
    const std::string& scenario,
    const std::vector<std::pair<std::string, std::string>>& kv) {
  Options options;
  for (const auto& [key, value] : kv) options.set(key, value);
  auto cfg = driver::make_config(options, scenario);
  return cfg;
}

// ---------------------------------------------------------------------------
// Decomposition planning
// ---------------------------------------------------------------------------

TEST(DecompPlan, ParseAcceptsExplicitSpecs) {
  EXPECT_EQ(parallel::parse_decomp("2x2x1"), (std::array<int, 3>{2, 2, 1}));
  EXPECT_EQ(parallel::parse_decomp("8x1x1"), (std::array<int, 3>{8, 1, 1}));
  EXPECT_EQ(parallel::parse_decomp(""), (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(parallel::parse_decomp("auto"), (std::array<int, 3>{0, 0, 0}));
  EXPECT_THROW(parallel::parse_decomp("2x2"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("axbxc"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("2x2x0"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_decomp("2x2x2junk"), std::invalid_argument);
}

TEST(DecompPlan, ChoosePrefersCubicFeasibleSplits) {
  parallel::DecompConstraints c;
  c.vlasov = {8, 8, 8};
  c.pm_grid = 8;
  EXPECT_EQ(parallel::choose_decomp(8, c), (std::array<int, 3>{2, 2, 2}));
  const auto d2 = parallel::choose_decomp(2, c);
  EXPECT_EQ(d2[0] * d2[1] * d2[2], 2);
}

TEST(DecompPlan, ChooseAvoidsAxesThinnerThanGhost) {
  parallel::DecompConstraints c;
  c.vlasov = {16, 2, 2};  // quasi-1D two_stream shape
  c.pm_grid = 16;
  c.vlasov_ghost = 3;
  // y/z cannot be split (local extent would be 1 < ghost 3).
  EXPECT_EQ(parallel::choose_decomp(4, c), (std::array<int, 3>{4, 1, 1}));
  // 32 ranks cannot fit: x allows at most 16/3 -> 5 -> divisors 2, 4.
  EXPECT_THROW(parallel::choose_decomp(32, c), std::invalid_argument);
}

TEST(DecompPlan, ValidateRejectsIndivisibleAndThinBricks) {
  parallel::DecompConstraints c;
  c.vlasov = {8, 8, 8};
  c.pm_grid = 8;
  EXPECT_NO_THROW(parallel::validate_decomp({2, 2, 2}, 8, c));
  EXPECT_THROW(parallel::validate_decomp({2, 2, 1}, 8, c),
               std::invalid_argument);  // wrong product
  EXPECT_THROW(parallel::validate_decomp({8, 1, 1}, 8, c),
               std::invalid_argument);  // local 1 < ghost 3
  c.vlasov = {9, 9, 9};
  c.pm_grid = 9;
  EXPECT_THROW(parallel::validate_decomp({2, 1, 1}, 2, c),
               std::invalid_argument);  // 9 % 2 != 0
}

// ---------------------------------------------------------------------------
// Brick <-> slab redistribution
// ---------------------------------------------------------------------------

TEST(FieldExchange, BrickSlabRoundTripPreservesValues) {
  const int n = 8;
  for (int p : {1, 2, 4}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
      mesh::Grid3D<double> brick(dec.local_n(0), dec.local_n(1),
                                 dec.local_n(2), 2);
      for (int i = 0; i < brick.nx(); ++i)
        for (int j = 0; j < brick.ny(); ++j)
          for (int k = 0; k < brick.nz(); ++k)
            brick.at(i, j, k) = (dec.offset(0) + i) * 1e4 +
                                (dec.offset(1) + j) * 1e2 +
                                (dec.offset(2) + k);
      fft::ParallelFft3D pfft(comm, n);
      parallel::SlabExchange exchange(dec, pfft, cart, 980);
      exchange.begin_to_slab(brick);
      const auto& slab = exchange.finish_to_slab();
      // The slab must hold the global field rows this rank owns.
      for (int x = 0; x < pfft.local_nx(); ++x)
        for (int y = 0; y < n; ++y)
          for (int z = 0; z < n; ++z) {
            const double expected =
                (pfft.x_offset() + x) * 1e4 + y * 1e2 + z;
            const auto& c = slab[(static_cast<std::size_t>(x) * n + y) * n + z];
            ASSERT_DOUBLE_EQ(c.real(), expected);
            ASSERT_EQ(c.imag(), 0.0);
          }
      mesh::Grid3D<double> back(dec.local_n(0), dec.local_n(1),
                                dec.local_n(2), 2);
      exchange.begin_to_brick(slab);
      exchange.finish_to_brick(back);
      for (int i = 0; i < brick.nx(); ++i)
        for (int j = 0; j < brick.ny(); ++j)
          for (int k = 0; k < brick.nz(); ++k)
            ASSERT_DOUBLE_EQ(back.at(i, j, k), brick.at(i, j, k));
    });
  }
}

TEST(FieldExchange, AllgatherBricksAssemblesGlobalField) {
  const int n = 6;
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(4));
    mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
    mesh::Grid3D<double> brick(dec.local_n(0), dec.local_n(1),
                               dec.local_n(2));
    for (int i = 0; i < brick.nx(); ++i)
      for (int j = 0; j < brick.ny(); ++j)
        for (int k = 0; k < brick.nz(); ++k)
          brick.at(i, j, k) = (dec.offset(0) + i) + 10.0 * (dec.offset(1) + j) +
                              100.0 * (dec.offset(2) + k);
    mesh::Grid3D<double> global(n, n, n);
    parallel::allgather_bricks(brick, dec, comm, global);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        for (int k = 0; k < n; ++k)
          ASSERT_DOUBLE_EQ(global.at(i, j, k), i + 10.0 * j + 100.0 * k);
  });
}

// ---------------------------------------------------------------------------
// World-1 vs N-rank equivalence of full driver runs
// ---------------------------------------------------------------------------

struct RunOutcome {
  mesh::Grid3D<double> density;
  double mass_before = 0.0, mass_after = 0.0;
  nbody::Particles particles;
  vlasov::PhaseSpace f;
};

RunOutcome run_scenario(const driver::SimulationConfig& cfg) {
  driver::Driver d(cfg);
  RunOutcome out;
  out.mass_before = d.solver().total_mass();
  d.run();
  out.mass_after = d.solver().total_mass();
  const auto& dims = d.solver().neutrinos().dims();
  out.density = mesh::Grid3D<double>(dims.nx, dims.ny, dims.nz);
  if (dims.total_interior() > 0)
    vlasov::compute_density(d.solver().neutrinos(), out.density);
  out.particles = d.solver().cdm();
  out.f = d.solver().neutrinos();
  return out;
}

/// Every interior block of `a` and `b` holds the same bytes.
void expect_phase_space_memcmp_equal(const vlasov::PhaseSpace& a,
                                     const vlasov::PhaseSpace& b) {
  const auto& d = a.dims();
  ASSERT_EQ(d.total_interior(), b.dims().total_interior());
  ASSERT_GT(d.total_interior(), 0u);
  const std::size_t bytes = a.block_size() * sizeof(float);
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k)
        ASSERT_EQ(std::memcmp(a.block(i, j, k), b.block(i, j, k), bytes), 0)
            << "cell " << i << "," << j << "," << k;
}

double max_rel_density_diff(const mesh::Grid3D<double>& a,
                            const mesh::Grid3D<double>& b) {
  double scale = 0.0;
  for (int i = 0; i < a.nx(); ++i)
    for (int j = 0; j < a.ny(); ++j)
      for (int k = 0; k < a.nz(); ++k)
        scale = std::max(scale, std::fabs(a.at(i, j, k)));
  double diff = 0.0;
  for (int i = 0; i < a.nx(); ++i)
    for (int j = 0; j < a.ny(); ++j)
      for (int k = 0; k < a.nz(); ++k)
        diff = std::max(diff, std::fabs(a.at(i, j, k) - b.at(i, j, k)));
  return scale > 0.0 ? diff / scale : diff;
}

class DistributedRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRanks, VlasovOnlyMatchesSerial) {
  const int p = GetParam();
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"},     {"nu", "6"},           {"max_steps", "2"},
      {"seed", "11"},  {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("vlasov_only", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = p;

  const auto serial = run_scenario(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  // Same realization, same steps, and no arithmetic that depends on the
  // split.  Along x, y and z the PM mesh matches the Vlasov grid, so the
  // injected moment lands on its own cell and the folds across brick
  // faces add only zeros; the rank-parallel FFT runs the same 1-D
  // transforms in the same axis order at every rank count.  So the
  // world-1 and p-rank trajectories are bit-identical, mass included.
  expect_phase_space_memcmp_equal(serial.f, dist.f);
  EXPECT_EQ(dist.mass_before, serial.mass_before);
  EXPECT_EQ(dist.mass_after, serial.mass_after);
}

TEST_P(DistributedRanks, NeutrinoBoxMatchesSerial) {
  const int p = GetParam();
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"},      {"nu", "6"},  {"np", "8"},
      {"max_steps", "2"}, {"seed", "7"}, {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("neutrino_box", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = p;

  const auto serial = run_scenario(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  // Not bit-identical: particle CIC weight spills into ghost cells, and
  // the p-rank fold sums it onto its owner in a different order than the
  // world-1 periodic fold.
  EXPECT_LT(max_rel_density_diff(serial.density, dist.density), 2e-5);
  // The acceptance bar: an N-rank neutrino_box conserves mass exactly as
  // well as the single-rank run — the decomposition contributes <= 1e-12
  // relative on top of the scheme's intrinsic drift.
  EXPECT_NEAR(dist.mass_after, serial.mass_after,
              1e-12 * std::fabs(serial.mass_after));
  EXPECT_NEAR(dist.mass_after - dist.mass_before,
              serial.mass_after - serial.mass_before,
              1e-12 * std::fabs(serial.mass_before));

  // Replicated particles see the same tree force and a PM force that
  // differs only by that summation order.
  ASSERT_EQ(serial.particles.size(), dist.particles.size());
  double max_dx = 0.0;
  for (std::size_t i = 0; i < serial.particles.size(); ++i) {
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.x[i] - dist.particles.x[i]));
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.y[i] - dist.particles.y[i]));
    max_dx = std::max(max_dx,
                      std::fabs(serial.particles.z[i] - dist.particles.z[i]));
  }
  EXPECT_LT(max_dx, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRanks,
                         ::testing::Values(2, 4, 8));

TEST(DistributedTwoStream, MatchesSerialAcrossThinAxes) {
  // ny = nz = 2 < ghost 3: exercises the local periodic wrap path of the
  // halo exchange on the undecomposed axes.
  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "16"}, {"nu", "8"}, {"max_steps", "3"}, {"checkpoint_dir", ""}};
  auto serial_cfg = make_cfg("two_stream", base);
  auto dist_cfg = serial_cfg;
  dist_cfg.ranks = 4;  // auto decomp must pick 4x1x1

  const auto serial = run_scenario(serial_cfg);
  const auto dist = run_scenario(dist_cfg);

  // Bit-identical for the reasons VlasovOnlyMatchesSerial gives: x, the
  // only split axis, matches the PM mesh; the thin y and z cells spill
  // onto two mesh planes, but those axes fold locally, in the world-1
  // order.
  expect_phase_space_memcmp_equal(serial.f, dist.f);
  EXPECT_EQ(dist.mass_before, serial.mass_before);
  EXPECT_EQ(dist.mass_after, serial.mass_after);
}

TEST(DistributedConservation, PositionSweepsConserveMassAcrossRanks) {
  // Pure drift cycle (no velocity sweeps, so no velocity-boundary
  // outflow): flux-form advection through exchanged halos is structurally
  // conservative — interface fluxes at brick boundaries are computed from
  // identical stencil values on both sides.  Only per-cell float store
  // rounding remains.
  const int n = 8, nu = 6;
  for (int p : {2, 8}) {
    comm::run(p, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
      mesh::BrickDecomposition dec({n, n, n}, cart.dims(), cart.coords());
      vlasov::PhaseSpaceDims dims;
      dims.nx = dec.local_n(0);
      dims.ny = dec.local_n(1);
      dims.nz = dec.local_n(2);
      dims.nux = dims.nuy = dims.nuz = nu;
      vlasov::PhaseSpaceGeometry geom;
      geom.umax = 1.0;
      geom.dux = geom.duy = geom.duz = 2.0 / nu;
      vlasov::PhaseSpace f(dims, geom);
      for (int i = 0; i < dims.nx; ++i)
        for (int j = 0; j < dims.ny; ++j)
          for (int k = 0; k < dims.nz; ++k) {
            float* blk = f.block(i, j, k);
            for (std::size_t v = 0; v < f.block_size(); ++v)
              blk[v] = 0.3f +
                       0.1f * std::sin(0.7f * (dec.offset(0) + i) +
                                       0.4f * (dec.offset(1) + j) +
                                       0.9f * (dec.offset(2) + k) + 0.05f * v);
          }
      mesh::HaloPlan plan(cart, dims, 900);
      const double m0 = comm.allreduce_sum(f.total_mass());
      for (int s = 0; s < 3; ++s)
        for (int axis : {2, 1, 0}) {
          plan.begin_axis(f, axis);
          plan.finish_axis(f, axis);
          vlasov::advect_position_axis(f, axis, 0.37, vlasov::SweepKernel::kAuto);
        }
      const double m1 = comm.allreduce_sum(f.total_mass());
      // Bound: random-walk of per-cell float rounding over ~10^5 cells,
      // a few 1e-10 relative; decomposition must not add to it.
      EXPECT_NEAR(m1, m0, 1e-9 * m0) << p << " ranks";
    });
  }
}

// ---------------------------------------------------------------------------
// overlap=on vs overlap=off stepping (exact equality, equal traffic)
// ---------------------------------------------------------------------------

// overlap=on moves *when* each exchange completes, never what is
// computed: every field sees the same floating-point operations in the
// same order.  So overlap=on must match overlap=off bit for bit —
// EXPECT_EQ on doubles, not a tolerance.
void expect_runs_bit_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.mass_before, b.mass_before);
  EXPECT_EQ(a.mass_after, b.mass_after);
  for (int i = 0; i < a.density.nx(); ++i)
    for (int j = 0; j < a.density.ny(); ++j)
      for (int k = 0; k < a.density.nz(); ++k)
        ASSERT_EQ(a.density.at(i, j, k), b.density.at(i, j, k))
            << "density cell " << i << " " << j << " " << k;
  ASSERT_EQ(a.particles.size(), b.particles.size());
  for (std::size_t i = 0; i < a.particles.size(); ++i) {
    ASSERT_EQ(a.particles.x[i], b.particles.x[i]) << "particle " << i;
    ASSERT_EQ(a.particles.y[i], b.particles.y[i]) << "particle " << i;
    ASSERT_EQ(a.particles.z[i], b.particles.z[i]) << "particle " << i;
    ASSERT_EQ(a.particles.ux[i], b.particles.ux[i]) << "particle " << i;
    ASSERT_EQ(a.particles.uy[i], b.particles.uy[i]) << "particle " << i;
    ASSERT_EQ(a.particles.uz[i], b.particles.uz[i]) << "particle " << i;
  }
}

TEST_P(DistributedRanks, OverlapBitIdenticalVlasovOnly) {
  const int p = GetParam();
  auto sync_cfg = make_cfg("vlasov_only", {{"nx", "8"},
                                           {"nu", "6"},
                                           {"max_steps", "2"},
                                           {"seed", "11"},
                                           {"checkpoint_dir", ""}});
  sync_cfg.ranks = p;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

TEST_P(DistributedRanks, OverlapBitIdenticalNeutrinoBox) {
  const int p = GetParam();
  auto sync_cfg = make_cfg("neutrino_box", {{"nx", "8"},
                                            {"nu", "6"},
                                            {"np", "8"},
                                            {"max_steps", "2"},
                                            {"seed", "7"},
                                            {"checkpoint_dir", ""}});
  sync_cfg.ranks = p;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

TEST(DistributedOverlap, BitIdenticalAcrossThinTwoStreamAxes) {
  // ny = nz = 2 < ghost: the thin (undecomposed) axes fill their ghosts
  // by local periodic wrap while x exchanges faces — and both modes stay
  // bit-identical.
  auto sync_cfg = make_cfg("two_stream", {{"nx", "16"},
                                          {"nu", "8"},
                                          {"max_steps", "3"},
                                          {"checkpoint_dir", ""}});
  sync_cfg.ranks = 4;
  sync_cfg.overlap = false;
  auto overlap_cfg = sync_cfg;
  overlap_cfg.overlap = true;
  expect_runs_bit_identical(run_scenario(sync_cfg),
                            run_scenario(overlap_cfg));
}

void expect_bricks_bit_identical(const vlasov::PhaseSpace& a,
                                 const vlasov::PhaseSpace& b) {
  const auto& d = a.dims();
  ASSERT_EQ(d.total_interior(), b.dims().total_interior());
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        const float* va = a.block(i, j, k);
        const float* vb = b.block(i, j, k);
        for (std::size_t v = 0; v < a.block_size(); ++v)
          ASSERT_EQ(va[v], vb[v])
              << "cell " << i << "," << j << "," << k << " lane " << v;
      }
}

TEST(DistributedOverlap, BothModesSendIdenticalTraffic) {
  // The overlap flag only moves where each fold/slab exchange finishes:
  // both modes run the same plans, so every rank must send the same
  // point-to-point messages and bytes, and end in the same state.
  for (int p : {2, 4}) {
    auto cfg = make_cfg("neutrino_box", {{"nx", "8"},
                                         {"nu", "6"},
                                         {"np", "8"},
                                         {"seed", "7"},
                                         {"checkpoint_dir", ""}});
    cfg.ranks = p;
    driver::Driver d(cfg);
    const auto decomp = driver::resolve_run_decomp(cfg, d.solver());
    struct Outcome {
      std::vector<std::uint64_t> bytes, msgs;
      std::vector<vlasov::PhaseSpace> f;
    };
    auto run_mode = [&](bool overlap) {
      const auto ranks = static_cast<std::size_t>(p);
      Outcome out{std::vector<std::uint64_t>(ranks),
                  std::vector<std::uint64_t>(ranks),
                  std::vector<vlasov::PhaseSpace>(ranks)};
      comm::run(p, [&](comm::Communicator& comm) {
        hybrid::HybridSolver ds(d.solver(), comm, decomp, overlap);
        comm.reset_traffic_counters();
        double a = cfg.a_init;
        for (int s = 0; s < 2; ++s) {
          const double a1 = ds.suggest_next_a(a, cfg.da_max);
          ds.step(a, a1);
          a = a1;
        }
        const auto r = static_cast<std::size_t>(comm.rank());
        out.bytes[r] = comm.bytes_sent();
        out.msgs[r] = comm.messages_sent();
        out.f[r] = ds.neutrinos();
      });
      return out;
    };
    const Outcome on = run_mode(true);
    const Outcome off = run_mode(false);
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_GT(on.msgs[i], 0u) << p << " ranks, rank " << r;
      EXPECT_EQ(on.bytes[i], off.bytes[i]) << p << " ranks, rank " << r;
      EXPECT_EQ(on.msgs[i], off.msgs[i]) << p << " ranks, rank " << r;
      expect_bricks_bit_identical(on.f[i], off.f[i]);
    }
  }
}

TEST(DistributedOverlap, AbortMidOverlapWakesPeers) {
  // A rank dying between begin and finish of an overlapped exchange must
  // wake peers blocked on its never-coming faces, and the original error
  // must surface (the overlap pipeline's variant of the PR-4 abort fix).
  try {
    comm::run(2, [&](comm::Communicator& comm) {
      comm::CartTopology cart(comm, {2, 1, 1});
      vlasov::PhaseSpaceDims dims;
      dims.nx = 8;
      dims.ny = dims.nz = 8;
      dims.nux = dims.nuy = dims.nuz = 2;
      vlasov::PhaseSpace f(dims, vlasov::PhaseSpaceGeometry{});
      mesh::HaloPlan plan(cart, dims, 960);
      if (comm.rank() == 0) {
        plan.begin_axis(f, 0);
        throw std::runtime_error("rank 0 died mid-overlap");
      }
      // Rank 1's first round completes (rank 0's faces were sent), but the
      // second round blocks on faces rank 0 never posts.
      // v6d-analyze: allow(overlap-window): rank 0's begin above is that rank's own instance (it threw mid-overlap on purpose); this is rank 1's first begin
      plan.begin_axis(f, 0);
      plan.finish_axis(f, 0);
      plan.begin_axis(f, 0);
      plan.finish_axis(f, 0);
      FAIL() << "finish_axis against a dead rank must not return";
    });
    FAIL() << "run() must rethrow the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died mid-overlap");
  }
}

// ---------------------------------------------------------------------------
// Distributed moments
// ---------------------------------------------------------------------------

TEST(DistributedMoments, LocalDensityBricksAssembleToSerialDensity) {
  auto cfg = make_cfg("vlasov_only", {{"nx", "8"},
                                      {"nu", "6"},
                                      {"checkpoint_dir", ""}});
  cfg.ranks = 4;
  driver::Driver d(cfg);
  const auto& f = d.solver().neutrinos();
  mesh::Grid3D<double> serial(f.dims().nx, f.dims().ny, f.dims().nz);
  vlasov::compute_density(f, serial);

  const auto dims = driver::resolve_run_decomp(cfg, d.solver());
  comm::run(4, [&](comm::Communicator& comm) {
    hybrid::HybridSolver ds(d.solver(), comm, dims);
    const auto& lf = ds.neutrinos();
    mesh::Grid3D<double> local(lf.dims().nx, lf.dims().ny, lf.dims().nz);
    vlasov::compute_density(lf, local);
    mesh::Grid3D<double> global(f.dims().nx, f.dims().ny, f.dims().nz);
    parallel::allgather_bricks(local, ds.decomposition(), comm, global);
    // Per-cell moments are local reductions over identical float blocks:
    // the assembly must match the serial moment exactly.
    for (int i = 0; i < serial.nx(); ++i)
      for (int j = 0; j < serial.ny(); ++j)
        for (int k = 0; k < serial.nz(); ++k)
          ASSERT_DOUBLE_EQ(global.at(i, j, k), serial.at(i, j, k));
  });
}

// ---------------------------------------------------------------------------
// Per-rank checkpoint shards
// ---------------------------------------------------------------------------

TEST(DistributedCheckpoint, ShardedResumeIsBitIdentical) {
  namespace fs = std::filesystem;
  const auto base_dir = fs::temp_directory_path() / "v6d_dist_ckpt";
  fs::remove_all(base_dir);
  const std::string dir_full = (base_dir / "full").string();
  const std::string dir_resumed = (base_dir / "resumed").string();

  const std::vector<std::pair<std::string, std::string>> base = {
      {"nx", "8"}, {"nu", "6"}, {"np", "8"}, {"seed", "5"}};
  auto cfg = make_cfg("neutrino_box", base);
  cfg.ranks = 2;

  // Uninterrupted 4-step run.
  auto cfg_full = cfg;
  cfg_full.max_steps = 4;
  cfg_full.checkpoint_dir = dir_full;
  driver::Driver full(cfg_full);
  full.run();

  // Killed-at-2 + resumed-to-4 run.
  auto cfg_half = cfg;
  cfg_half.max_steps = 2;
  cfg_half.checkpoint_dir = dir_resumed;
  driver::Driver half(cfg_half);
  half.run();
  Options overrides;
  overrides.set("max_steps", "4");
  driver::Driver resumed = driver::Driver::resume(dir_resumed, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  resumed.run();
  EXPECT_EQ(resumed.step_count(), 4);

  // The checkpoints written at step 4 must agree bit for bit: shards,
  // particles, and the step-boundary force cache.
  for (int r = 0; r < 2; ++r) {
    const std::string shard = "phase_space.4.r" + std::to_string(r) + ".bin";
    std::ifstream a(fs::path(dir_full) / shard, std::ios::binary);
    std::ifstream b(fs::path(dir_resumed) / shard, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good()) << shard;
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << shard;
  }
  for (const char* payload : {"particles.4.bin", "forces.4.bin"}) {
    std::ifstream a(fs::path(dir_full) / payload, std::ios::binary);
    std::ifstream b(fs::path(dir_resumed) / payload, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good()) << payload;
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << payload;
  }
  fs::remove_all(base_dir);
}

TEST(DistributedCheckpoint, GarbageCollectionKeepsLiveShards) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "v6d_dist_gc";
  fs::remove_all(dir);
  auto cfg = make_cfg("vlasov_only", {{"nx", "8"}, {"nu", "6"}});
  cfg.ranks = 2;
  cfg.max_steps = 2;
  cfg.checkpoint_every = 1;  // supersede the step-1 checkpoint with step 2
  cfg.checkpoint_dir = dir.string();
  driver::Driver d(cfg);
  d.run();
  EXPECT_TRUE(fs::exists(dir / "phase_space.2.r0.bin"));
  EXPECT_TRUE(fs::exists(dir / "phase_space.2.r1.bin"));
  EXPECT_FALSE(fs::exists(dir / "phase_space.1.r0.bin"));
  EXPECT_FALSE(fs::exists(dir / "phase_space.1.r1.bin"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Green-function sharing
// ---------------------------------------------------------------------------

TEST(GreenFunction, FreeFunctionMatchesSolverConventions) {
  gravity::PoissonOptions options;
  options.prefactor = 2.5;
  options.deconvolve_order = 2;
  EXPECT_DOUBLE_EQ(
      gravity::green_times_window(0, 0, 0, 8, 8, 8, 1.0, 1.0, 1.0, options),
      0.0);
  const double g = gravity::green_times_window(1, 2, 3, 8, 8, 8, 1.0, 1.0,
                                               1.0, options);
  EXPECT_LT(g, 0.0);  // attractive potential
  EXPECT_DOUBLE_EQ(gravity::fft_wavenumber(0, 8, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gravity::fft_wavenumber(7, 8, 1.0), -2.0 * M_PI);
}

}  // namespace
