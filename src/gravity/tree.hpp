// Barnes-Hut octree for the short-range (tree) part of TreePM (§5.1.2).
//
// The tree covers the periodic box; pair separations use the minimum-image
// convention, which is exact only while the short-range cutoff radius is
// below half the box.  Nothing enforces that: rcut = rcut_over_rs *
// rs_cells * box / pm_grid, and a coarse PM grid breaks it (pm_grid = 8
// with the default split gives rcut = 4.5 * 1.25 * box / 8 = 0.70 box,
// as configs/neutrino_box.cfg runs).  The walk then counts only each
// source's nearest image, although farther images also lie within rcut.
// Node acceptance uses the classic s/d < theta multipole acceptance
// criterion with monopole moments; accepted nodes and leaf particles are
// batched into per-target interaction lists evaluated by the PP kernel
// (scalar reference or SIMD).
//
// The nodes are stored in preorder, each node's children in octant order,
// so a node's subtree is one index range and the walk is a loop: it visits
// node i, and either descends to i + 1 or skips to the end of i's
// subtree.  It reads per-node constants computed at build time and the
// particle coordinates in leaf order.  accumulate() threads over chunks
// of targets (OpenMP, dynamic schedule); each thread reuses one
// interaction list for all its targets, and each target's list and sum
// are its own, so the forces do not depend on the thread count.  A chunk
// runs as one call of a walk-and-sum body compiled per sweep tier
// (simd/dispatch.hpp), with the PP kernel inlined at the tier's width.
#pragma once

#include <cstdint>
#include <vector>

#include "gravity/pp_kernel.hpp"
#include "nbody/particles.hpp"

namespace v6d::gravity {

struct TreeStats {
  // Interaction-list entries evaluated by the PP kernel: leaf particles
  // plus accepted nodes (pseudo-particles), summed over targets.
  std::uint64_t p2p_interactions = 0;
};

class BarnesHutTree {
 public:
  /// Builds over all particles; `leaf_size` caps particles per leaf.  The
  /// tree copies the coordinates it reads: it does not refer to
  /// `particles` after construction.
  BarnesHutTree(const nbody::Particles& particles, double box,
                int leaf_size = 16);

  /// Accumulate (+=) short-range accelerations at the given targets with
  /// G = 1 (callers scale by G).  `theta`: opening angle.  If params.rcut
  /// > 0, subtrees entirely beyond the cutoff are pruned — this is what
  /// makes TreePM short-range walks O(N) per target.  Runs on the OpenMP
  /// threads; every thread count gives the same bits.
  void accumulate(const double* tx, const double* ty, const double* tz,
                  std::size_t nt, const PpKernelParams& params,
                  const CutoffPoly& poly, double theta, bool use_simd,
                  double* ax, double* ay, double* az,
                  TreeStats* stats = nullptr) const;

  /// Convenience: short-range accelerations at every particle position.
  void accelerations(const nbody::Particles& particles,
                     const PpKernelParams& params, const CutoffPoly& poly,
                     double theta, bool use_simd, std::vector<double>& ax,
                     std::vector<double>& ay, std::vector<double>& az,
                     TreeStats* stats = nullptr) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  double total_mass() const { return total_mass_; }

 private:
  friend struct TreeWalk;  // the walk-and-sum bodies (tree.cpp)

  /// A node as the walk reads it.  Its subtree is the node range
  /// [its index, end); a leaf's is itself alone.
  struct Node {
    double comx, comy, comz;  // center of mass
    double radius;            // half * sqrt(3), center to corner
    double size2;             // (2 * half)^2, the opening test's size^2
    float mass;               // the node's mass as a pseudo-particle
    int end;                  // one past the last node of the subtree
    int first, count;         // its particles, in leaf order
  };

  /// Adds the node of perm[first, first + count) and its subtree;
  /// reorders that range into leaf order.
  int build(const nbody::Particles& p, std::vector<int>& perm, int first,
            int count, double cx, double cy, double cz, double half,
            int depth);

  double box_;
  int leaf_size_;
  double total_mass_ = 0.0;
  float particle_mass_ = 0.0f;
  std::vector<double> px_, py_, pz_;   // coordinates in leaf order
  std::vector<Node> nodes_;            // preorder
};

}  // namespace v6d::gravity
