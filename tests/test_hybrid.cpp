#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/runner.hpp"
#include "common/rng.hpp"
#include "cosmology/neutrino_ic.hpp"
#include "cosmology/zeldovich.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "io/snapshot.hpp"

namespace {

using namespace v6d;

struct HybridSetup {
  double box = 100.0;
  int nx = 6;
  int nu = 8;
  double a0 = 1.0 / 11.0;
  cosmo::Params params = cosmo::Params::planck2015(0.4);

  nbody::Particles particles() const {
    cosmo::PowerSpectrum ps(params);
    cosmo::ZeldovichOptions zopt;
    zopt.particles_per_side = 12;
    zopt.a_init = a0;
    zopt.seed = 9;
    return cosmo::zeldovich_ics(ps, box, zopt).particles;
  }

  /// Linear-theory neutrino phase space of realization `seed`.
  vlasov::PhaseSpace neutrinos(std::uint64_t seed = 9) const {
    cosmo::PowerSpectrum ps(params);
    const double u_th =
        cosmo::neutrino_thermal_velocity(params.m_nu_total_ev / 3.0);
    cosmo::NeutrinoIcOptions nopt;
    nopt.a_init = a0;
    nopt.seed = seed;
    auto fields = cosmo::neutrino_linear_fields(ps, box, nx, nopt);
    vlasov::PhaseSpaceDims dims;
    dims.nx = dims.ny = dims.nz = nx;
    dims.nux = dims.nuy = dims.nuz = nu;
    vlasov::PhaseSpaceGeometry geom;
    geom.dx = geom.dy = geom.dz = box / nx;
    geom.umax = nopt.umax_over_uth * u_th;
    geom.dux = geom.duy = geom.duz = 2.0 * geom.umax / nu;
    vlasov::PhaseSpace f(dims, geom);
    cosmo::initialize_neutrino_phase_space(f, params, u_th, fields.delta,
                                           &fields.bulk_x, &fields.bulk_y,
                                           &fields.bulk_z);
    return f;
  }

  hybrid::HybridSolver make(vlasov::PhaseSpace f,
                            nbody::Particles cdm) const {
    hybrid::HybridOptions opt;
    opt.pm_grid = nx;
    opt.treepm.theta = 0.6;
    opt.treepm.eps_cells = 0.2;
    return hybrid::HybridSolver(std::move(f), std::move(cdm), box,
                                cosmo::Background(params), opt);
  }

  hybrid::HybridSolver make(vlasov::PhaseSpace f) const {
    return make(std::move(f), particles());
  }

  hybrid::HybridSolver make(bool with_nu = true) const {
    return make(with_nu ? neutrinos() : vlasov::PhaseSpace());
  }
};

TEST(HybridSolver, TotalMassConserved) {
  HybridSetup setup;
  auto solver = setup.make();
  const double mass0 = solver.total_mass();
  double a = setup.a0;
  for (int s = 0; s < 3; ++s) {
    const double a1 = solver.suggest_next_a(a, 0.02);
    solver.step(a, a1);
    a = a1;
  }
  EXPECT_NEAR(solver.total_mass(), mass0, 1e-3 * mass0);
  EXPECT_GE(solver.neutrinos().min_interior(), 0.0f);
}

TEST(HybridSolver, CflControlKeepsShiftsBounded) {
  HybridSetup setup;
  auto solver = setup.make();
  cosmo::Background bg(setup.params);
  const double a1 = solver.suggest_next_a(setup.a0, 0.5);
  const double shift = vlasov::max_position_shift(
      solver.neutrinos(), bg.drift_factor(setup.a0, a1));
  EXPECT_LE(shift, 0.9 + 1e-6);
  EXPECT_GT(a1, setup.a0);
}

TEST(HybridSolver, NeutrinoDensityTracksCdmOnLargeScales) {
  HybridSetup setup;
  auto solver = setup.make();
  double a = setup.a0;
  for (int s = 0; s < 4; ++s) {
    const double a1 = solver.suggest_next_a(a, 0.03);
    solver.step(a, a1);
    a = a1;
  }
  // Fig. 4 physics: the neutrino field correlates positively with CDM but
  // with much lower contrast.
  const auto& rho_nu = solver.nu_density();
  const auto& rho_cdm = solver.cdm_density();
  double mean_nu = 0.0, mean_cdm = 0.0;
  const int n = setup.nx;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        mean_nu += rho_nu.at(i, j, k);
        mean_cdm += rho_cdm.at(i, j, k);
      }
  mean_nu /= n * n * n;
  mean_cdm /= n * n * n;
  double cov = 0.0, var_nu = 0.0, var_cdm = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        const double dn = rho_nu.at(i, j, k) / mean_nu - 1.0;
        const double dc = rho_cdm.at(i, j, k) / mean_cdm - 1.0;
        cov += dn * dc;
        var_nu += dn * dn;
        var_cdm += dc * dc;
      }
  const double corr = cov / std::sqrt(var_nu * var_cdm);
  EXPECT_GT(corr, 0.3);  // traces CDM
  // Much smoother than CDM: contrast ratio well below 1.
  EXPECT_LT(std::sqrt(var_nu / var_cdm), 0.7);
}

TEST(HybridSolver, CdmOnlyModeRuns) {
  HybridSetup setup;
  auto solver = setup.make(/*with_nu=*/false);
  const double mass0 = solver.total_mass();
  solver.step(setup.a0, setup.a0 + 0.01);
  EXPECT_NEAR(solver.total_mass(), mass0, 1e-12 * mass0);
}

TEST(HybridSolver, TimersAccumulatePerPart) {
  HybridSetup setup;
  auto solver = setup.make();
  const double a1 = solver.suggest_next_a(setup.a0, 0.01);
  solver.step(setup.a0, a1);
  EXPECT_GT(solver.timers().total("vlasov"), 0.0);
  EXPECT_GT(solver.timers().total("pm"), 0.0);
  EXPECT_GT(solver.timers().total("tree"), 0.0);
}

/// `a` and `b` hold the same bytes: phase space and every particle array.
void expect_same_state(const hybrid::HybridSolver& a,
                       const hybrid::HybridSolver& b) {
  const auto& f = a.neutrinos();
  const auto& g = b.neutrinos();
  ASSERT_EQ(f.raw_size(), g.raw_size());
  EXPECT_EQ(std::memcmp(f.raw(), g.raw(), f.raw_size() * sizeof(float)), 0);
  const auto& p = a.cdm();
  const auto& q = b.cdm();
  ASSERT_EQ(p.size(), q.size());
  const std::size_t bytes = p.size() * sizeof(double);
  if (bytes == 0) return;  // memcmp may not take an empty vector's null data
  for (const auto& [u, v] : {std::pair{&p.x, &q.x}, std::pair{&p.y, &q.y},
                             std::pair{&p.z, &q.z}, std::pair{&p.ux, &q.ux},
                             std::pair{&p.uy, &q.uy}, std::pair{&p.uz, &q.uz}})
    EXPECT_EQ(std::memcmp(u->data(), v->data(), bytes), 0);
}

// The world-1 solver owns its phase space: the scenario constructor moves
// f in (a copy would hold a second phase space), and nothing it builds
// points into f, so the phase space may be replaced after construction —
// as perfbench's translate() does — and the run is the one a solver built
// from the replacement would make.
TEST(HybridSolver, WorldOneTakesItsPhaseSpace) {
  HybridSetup setup;
  auto f = setup.neutrinos();
  const float* buffer = f.raw();
  auto solver = setup.make(std::move(f));
  EXPECT_EQ(solver.neutrinos().raw(), buffer);

  solver.neutrinos() = setup.neutrinos(/*seed=*/23);
  auto reference = setup.make(setup.neutrinos(/*seed=*/23));
  double a = setup.a0;
  for (int s = 0; s < 2; ++s) {
    const double a1 = reference.suggest_next_a(a, 0.02);
    EXPECT_EQ(solver.suggest_next_a(a, 0.02), a1);
    solver.step(a, a1);
    reference.step(a, a1);
    a = a1;
  }
  expect_same_state(solver, reference);
}

// A step owes its trailing half-kick, kick_factor(a_mid, a1), on the
// forces it computed at a1; synchronize() applies exactly that kick and
// zeroes it.  With nothing owed — a solver that has not stepped, or one
// already synchronized — it leaves the state bit for bit.
TEST(HybridSolver, SynchronizeAppliesTheOwedKickOnce) {
  HybridSetup setup;
  auto solver = setup.make();
  auto untouched = setup.make();
  solver.synchronize();
  EXPECT_EQ(solver.step_forces().owed_kick, 0.0);
  expect_same_state(solver, untouched);

  const double a0 = setup.a0;
  const double a1 = solver.suggest_next_a(a0, 0.02);
  solver.step(a0, a1);
  const auto forces = solver.step_forces();
  const cosmo::Background bg(setup.params);
  EXPECT_EQ(forces.a, a1);
  EXPECT_EQ(forces.owed_kick, bg.kick_factor(0.5 * (a0 + a1), a1));
  const nbody::Particles before = solver.cdm();
  solver.synchronize();
  EXPECT_EQ(solver.step_forces().owed_kick, 0.0);
  const auto& p = solver.cdm();
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(p.ux[i], before.ux[i] + forces.ax[i] * forces.owed_kick) << i;
    ASSERT_EQ(p.uy[i], before.uy[i] + forces.ay[i] * forces.owed_kick) << i;
    ASSERT_EQ(p.uz[i], before.uz[i] + forces.az[i] * forces.owed_kick) << i;
  }

  auto synchronized = setup.make();
  synchronized.step(a0, a1);
  synchronized.synchronize();
  synchronized.synchronize();
  expect_same_state(solver, synchronized);
}

// A solver that takes over a step boundary holds no forces: the slicing
// constructor and gather_into carry only the owed kick and its scale
// factor.  Without particles the forces do not depend on the rank count,
// so a world-1 solver that steps once, is sliced over 2 ranks for a
// second step and gathered back synchronizes to the state of a world-1
// solver that took both steps itself, bit for bit: each rank recomputed
// the first step's forces before its kick, and the gathered solver the
// second step's before it settled the owed kick.
TEST(HybridSolver, SlicingAndGatherCarryTheOwedKickNotTheForces) {
  HybridSetup setup;
  auto reference = setup.make(setup.neutrinos(), nbody::Particles());
  auto global = setup.make(setup.neutrinos(), nbody::Particles());
  const double a0 = setup.a0;
  const double a1 = reference.suggest_next_a(a0, 0.02);
  reference.step(a0, a1);
  const double a2 = reference.suggest_next_a(a1, 0.02);
  reference.step(a1, a2);
  reference.synchronize();

  global.step(a0, a1);
  const double owed = global.step_forces().owed_kick;
  ASSERT_NE(owed, 0.0);
  comm::run(2, [&](comm::Communicator& comm) {
    hybrid::HybridSolver local(global, comm, {2, 1, 1});
    EXPECT_FALSE(local.step_forces().fresh);
    EXPECT_EQ(local.step_forces().owed_kick, owed);
    EXPECT_EQ(local.step_forces().a, a1);
    local.step(a1, a2);
    local.gather_into(global);
  });
  EXPECT_FALSE(global.step_forces().fresh);
  EXPECT_EQ(global.step_forces().a, a2);
  EXPECT_NE(global.step_forces().owed_kick, 0.0);
  global.synchronize();
  EXPECT_TRUE(global.step_forces().fresh);
  expect_same_state(global, reference);
}

/// A gather message from a peer: the shard encoding of an all-zero brick
/// of `global`'s shape with `extent` cells from cell `offset`, either of
/// which may reach outside the grid.
std::vector<std::uint8_t> brick_message(const vlasov::PhaseSpace& global,
                                        std::array<int, 3> offset,
                                        std::array<int, 3> extent) {
  auto dims = global.dims();
  dims.nx = extent[0];
  dims.ny = extent[1];
  dims.nz = extent[2];
  auto geom = global.geom();
  geom.x0 += offset[0] * geom.dx;
  geom.y0 += offset[1] * geom.dy;
  geom.z0 += offset[2] * geom.dz;
  return io::encode_phase_space(vlasov::PhaseSpace(dims, geom));
}

/// Run a 2-rank gather of `global` where rank 1 sends `message` in place
/// of its brick, then joins the gather's closing barrier; returns
/// what rank 0's gather_into threw ("" if nothing).
std::string gather_refusal(hybrid::HybridSolver& global,
                           const std::vector<std::uint8_t>& message) {
  constexpr int kGatherTag = hybrid::HybridSolver::kGatherTag;
  try {
    comm::run(2, [&](comm::Communicator& comm) {
      hybrid::HybridSolver local(global, comm, {2, 1, 1}, /*overlap=*/false);
      if (comm.rank() == 1) {
        comm.send_bytes(0, kGatherTag, message.data(), message.size());
        // v6d-analyze: allow(collective-consistency): rank 0 meets this barrier inside gather_into
        comm.barrier();
        return;
      }
      local.gather_into(global);
    });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Rank 0 places each peer's brick by the geometry origin its shard
// encoding carries.  A brick that lies outside the grid — past its end,
// at a negative offset, or with an empty extent — must be refused before
// any block is copied.
TEST(HybridSolver, GatherRejectsBrickHeadersOutsideTheGrid) {
  HybridSetup setup;
  auto global = setup.make();
  const auto& f = global.neutrinos();
  const auto& gd = f.dims();
  const std::array<int, 3> placements[][2] = {
      {{gd.nx, 0, 0}, {1, gd.ny, gd.nz}},      // one layer at x = nx
      {{gd.nx - 1, 0, 0}, {4, gd.ny, gd.nz}},  // four layers from the last
      {{0, -1, 0}, {gd.nx / 2, gd.ny, gd.nz}},
      {{0, 0, 0}, {gd.nx / 2, gd.ny, 0}},
  };
  for (const auto& [offset, extent] : placements)
    EXPECT_NE(gather_refusal(global, brick_message(f, offset, extent)), "")
        << "offset " << offset[0] << "," << offset[1] << "," << offset[2]
        << " extent " << extent[0] << "," << extent[1] << "," << extent[2];
}

// Rank 0 refuses a brick set that does not tile the grid exactly: a
// duplicate of its own brick overlaps it, and a peer brick one layer
// short of its share leaves cells uncovered.
TEST(HybridSolver, GatherRefusesBrickSetsThatDoNotTileTheGrid) {
  HybridSetup setup;
  auto global = setup.make();
  const auto& f = global.neutrinos();
  const auto& gd = f.dims();
  const int half = gd.nx / 2;
  EXPECT_NE(gather_refusal(global, brick_message(f, {0, 0, 0},
                                                 {half, gd.ny, gd.nz}))
                .find("overlaps"),
            std::string::npos);
  EXPECT_NE(gather_refusal(global, brick_message(f, {half, 0, 0},
                                                 {half - 1, gd.ny, gd.nz}))
                .find("do not cover"),
            std::string::npos);
}

// Thread ranks gather like process ranks: every brick but rank 0's reaches
// it as a message, and slicing then gathering with no step in between
// gives back the phase space bit for bit.
TEST(HybridSolver, GatherPlacesEveryBrickOnRankZero) {
  HybridSetup setup;
  const auto global = setup.make();
  auto gathered = setup.make();
  vlasov::PhaseSpace& g = gathered.neutrinos();
  std::fill(g.raw(), g.raw() + g.raw_size(), 0.0f);
  comm::run(4, [&](comm::Communicator& comm) {
    hybrid::HybridSolver local(global, comm, {1, 2, 2}, /*overlap=*/true);
    const std::uint64_t to_root = comm.messages_sent_to(0);
    local.gather_into(gathered);
    EXPECT_EQ(comm.messages_sent_to(0) - to_root, comm.rank() == 0 ? 0u : 1u);
  });
  const vlasov::PhaseSpace& want = global.neutrinos();
  ASSERT_EQ(g.raw_size(), want.raw_size());
  EXPECT_EQ(std::memcmp(g.raw(), want.raw(), g.raw_size() * sizeof(float)),
            0);
}

// HybridSolver walks the tree only at the particles its rank owns.  Any
// disjoint split of the target indices that covers every particle must
// reproduce one full pass bit for bit, and walk each target exactly once.
TEST(TreeAccelerations, DisjointTargetListsSumToOneFullPass) {
  const double box = 100.0;
  const std::size_t n = 600;
  nbody::Particles p(n);
  Xoshiro256 rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = rng.next_double() * box;
    p.y[i] = rng.next_double() * box;
    p.z[i] = rng.next_double() * box;
  }
  p.mass = 1.0 / static_cast<double>(n);

  hybrid::HybridOptions opt;
  opt.pm_grid = 16;
  const auto derived = hybrid::TreePmDerived::from(opt, box);
  ASSERT_GT(derived.rs, 0.0);
  ASSERT_GT(derived.rcut, 0.0);
  const double prefactor = hybrid::HybridSolver::poisson_prefactor(0.2);

  // Four lists: ascending, empty, shuffled, descending.
  std::vector<std::vector<std::size_t>> parts(4);
  for (std::size_t i = 0; i < n; ++i)
    parts[i % 3 == 0 ? 0 : 1 + i % 3].push_back(i);
  auto& shuffled = parts[2];
  for (std::size_t k = shuffled.size() - 1; k > 0; --k)
    std::swap(shuffled[k], shuffled[rng.next_u64() % (k + 1)]);
  std::reverse(parts[3].begin(), parts[3].end());
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});

  const std::size_t bytes = n * sizeof(double);
  for (const bool use_simd : {true, false}) {
    SCOPED_TRACE(use_simd ? "simd" : "scalar");
    opt.treepm.use_simd = use_simd;
    std::vector<double> fx(n, 0.0), fy(n, 0.0), fz(n, 0.0);
    hybrid::add_tree_accelerations(p, p, box, opt, derived, prefactor, all, fx,
                                   fy, fz);
    std::vector<double> sx(n, 0.0), sy(n, 0.0), sz(n, 0.0);
    for (const auto& part : parts) {
      std::vector<double> ax(n, 0.0), ay(n, 0.0), az(n, 0.0);
      hybrid::add_tree_accelerations(p, p, box, opt, derived, prefactor, part,
                                     ax, ay, az);
      for (std::size_t i = 0; i < n; ++i) {
        sx[i] += ax[i];
        sy[i] += ay[i];
        sz[i] += az[i];
      }
    }
    EXPECT_NE(fx[0], 0.0);
    EXPECT_EQ(std::memcmp(sx.data(), fx.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(sy.data(), fy.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(sz.data(), fz.data(), bytes), 0);
  }

  // Work: the parts' interaction-list entries add up to the full pass's.
  gravity::BarnesHutTree tree(p, box, opt.treepm.leaf_size);
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  std::vector<double> ax, ay, az;
  gravity::TreeStats full;
  tree.accelerations(p, params, derived.poly, opt.treepm.theta, true, ax, ay,
                     az, &full);
  std::uint64_t walked = 0;
  for (const auto& part : parts) {
    std::vector<double> tx(part.size()), ty(part.size()), tz(part.size());
    for (std::size_t k = 0; k < part.size(); ++k) {
      tx[k] = p.x[part[k]];
      ty[k] = p.y[part[k]];
      tz[k] = p.z[part[k]];
    }
    ax.assign(part.size(), 0.0);
    ay.assign(part.size(), 0.0);
    az.assign(part.size(), 0.0);
    gravity::TreeStats stats;
    tree.accumulate(tx.data(), ty.data(), tz.data(), part.size(), params,
                    derived.poly, opt.treepm.theta, true, ax.data(),
                    ay.data(), az.data(), &stats);
    walked += stats.p2p_interactions;
  }
  EXPECT_GT(full.p2p_interactions, 0u);
  EXPECT_EQ(walked, full.p2p_interactions);
}

}  // namespace
