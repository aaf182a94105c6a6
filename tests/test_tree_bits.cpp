// The short-range tree pass, bit for bit: BarnesHutTree's loop walk,
// threaded over chunks of targets and summed by the tier's PP kernel, must
// give every target the forces and list length of the recursive walk and
// the 4-lane sum order spelled out (tree_oracle.hpp) — on every sweep tier
// the host runs and at 1, 2, 3 and 4 OpenMP threads, for the SIMD kernel
// and the double reference alike.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gravity/tree.hpp"
#include "sweep_tiers.hpp"
#include "tree_oracle.hpp"

namespace {

using namespace v6d;
using gravity::BarnesHutTree;
using gravity::CutoffPoly;
using gravity::PpKernelParams;
using nbody::Particles;

/// Runs body with the OpenMP team size set to `threads` (serial builds:
/// one thread whatever is asked).
template <class Body>
void with_threads(int threads, Body&& body) {
  SCOPED_TRACE(std::to_string(threads) + " OpenMP threads");
#ifdef _OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(threads);
  body();
  omp_set_num_threads(before);
#else
  (void)threads;
  body();
#endif
}

/// Six Gaussian clumps, two of them across the periodic boundary, over a
/// uniform background: dense leaves, accepted nodes and pruned subtrees.
Particles clustered(std::size_t n, double box, std::uint64_t seed) {
  Particles p(n);
  Xoshiro256 rng(seed);
  const double centers[6][3] = {{0.3, 0.3, 0.3}, {0.7, 0.2, 0.6},
                                {0.5, 0.8, 0.4}, {0.2, 0.6, 0.85},
                                {0.02, 0.5, 0.5}, {0.97, 0.98, 0.1}};
  const double sigma[6] = {0.02, 0.04, 0.03, 0.05, 0.03, 0.02};
  for (std::size_t i = 0; i < n; ++i) {
    double* x[3] = {&p.x[i], &p.y[i], &p.z[i]};
    const std::size_t c = i % 8;  // two of eight in the background
    for (int a = 0; a < 3; ++a) {
      double v = c < 6 ? centers[c][a] + sigma[c] * rng.next_normal()
                       : rng.next_double();
      v = std::fmod(v * box, box);
      *x[a] = v < 0.0 ? v + box : v;
    }
    p.id[i] = i;
  }
  p.mass = 1.0 / static_cast<double>(n);
  return p;
}

/// The TreePM parameters the force pass derives for a 16^3 PM mesh.
PpKernelParams treepm_params(double box) {
  const double h = box / 16.0;
  PpKernelParams params;
  params.rs = 1.25 * h;
  params.rcut = 4.5 * params.rs;
  params.eps = 0.05 * h;
  return params;
}

struct Targets {
  std::vector<double> x, y, z;
};

Targets at_particles(const Particles& p) { return {p.x, p.y, p.z}; }

/// Checks one tree pass against the oracle: forces memcmp-equal and the
/// same list entries, for both kernels, on every tier and thread count.
/// Accelerations start nonzero, since both passes accumulate.
void expect_oracle_bits(const Particles& p, double box, int leaf_size,
                        const Targets& t, const PpKernelParams& params,
                        const CutoffPoly& poly, double theta) {
  const std::size_t nt = t.x.size();
  const BarnesHutTree tree(p, box, leaf_size);
  const tree_oracle::RecursiveTree oracle(p, box, leaf_size);
  ASSERT_EQ(tree.node_count(), oracle.node_count());
  std::vector<double> start(nt);
  for (std::size_t i = 0; i < nt; ++i) start[i] = 0.125 * static_cast<double>(i % 5);
  for (const bool use_simd : {true, false}) {
    SCOPED_TRACE(use_simd ? "SIMD kernel" : "double reference");
    std::vector<double> want[3] = {start, start, start};
    const std::uint64_t want_entries = oracle.accumulate(
        t.x.data(), t.y.data(), t.z.data(), nt, params, poly, theta,
        use_simd, want[0].data(), want[1].data(), want[2].data());
    ASSERT_GT(want_entries, 0u);
    sweep_tiers::on_every_tier([&] {
      for (int threads = 1; threads <= 4; ++threads) {
        with_threads(threads, [&] {
          std::vector<double> got[3] = {start, start, start};
          gravity::TreeStats stats;
          stats.p2p_interactions = 7;  // accumulates too
          tree.accumulate(t.x.data(), t.y.data(), t.z.data(), nt, params,
                          poly, theta, use_simd, got[0].data(),
                          got[1].data(), got[2].data(), &stats);
          EXPECT_EQ(stats.p2p_interactions, want_entries + 7);
          for (int a = 0; a < 3; ++a)
            EXPECT_EQ(std::memcmp(got[a].data(), want[a].data(),
                                  nt * sizeof(double)),
                      0)
                << "axis " << a;
        });
      }
    });
  }
}

TEST(TreeBits, ClusteredSetMatchesTheRecursiveWalk) {
  const double box = 1.0;
  const Particles p = clustered(3000, box, 31);
  const PpKernelParams params = treepm_params(box);
  const CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  expect_oracle_bits(p, box, 16, at_particles(p), params, poly, 0.6);
}

TEST(TreeBits, ClusteredSetWithoutCutoffMatchesTheRecursiveWalk) {
  // No TreePM split: no pruning, no skipped group, every subtree opened
  // or accepted by the opening angle alone.
  const double box = 2.0;
  const Particles p = clustered(1200, box, 5);
  PpKernelParams params;
  params.eps = 0.01;
  expect_oracle_bits(p, box, 8, at_particles(p), params, CutoffPoly(3.0, 12),
                     0.5);
}

TEST(TreeBits, CoincidentParticlesMatchTheRecursiveWalk) {
  // HandlesCoincidentParticles' set: 32 particles at one point fill a
  // leaf that only the depth cap closes.
  Particles p(64);
  for (std::size_t i = 0; i < 32; ++i) p.x[i] = p.y[i] = p.z[i] = 0.5;
  Xoshiro256 rng(8);
  for (std::size_t i = 32; i < 64; ++i) {
    p.x[i] = rng.next_double();
    p.y[i] = rng.next_double();
    p.z[i] = rng.next_double();
  }
  p.mass = 1.0;
  PpKernelParams plain;
  plain.eps = 0.05;
  expect_oracle_bits(p, 1.0, 2, at_particles(p), plain, CutoffPoly(3.0, 10),
                     0.5);
  const PpKernelParams split = treepm_params(1.0);
  expect_oracle_bits(p, 1.0, 2, at_particles(p), split,
                     CutoffPoly(split.rcut / (2.0 * split.rs), 14), 0.5);
}

TEST(TreeBits, TargetListsShorterThanAChunkMatchTheRecursiveWalk) {
  const double box = 1.0;
  const Particles p = clustered(2000, box, 77);
  const PpKernelParams params = treepm_params(box);
  const CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
  Xoshiro256 rng(12);
  for (const std::size_t nt : {1, 7, 31, 32, 33}) {
    SCOPED_TRACE(std::to_string(nt) + " targets");
    Targets t;
    for (std::size_t i = 0; i < nt; ++i) {
      // Half at particles, half between them.
      const std::size_t k = (i * 131) % p.size();
      const bool on = i % 2 == 0;
      t.x.push_back(on ? p.x[k] : rng.next_double() * box);
      t.y.push_back(on ? p.y[k] : rng.next_double() * box);
      t.z.push_back(on ? p.z[k] : rng.next_double() * box);
    }
    expect_oracle_bits(p, box, 16, t, params, poly, 0.6);
  }
}

}  // namespace
