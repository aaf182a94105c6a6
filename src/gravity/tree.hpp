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
  /// Builds over all particles; `leaf_size` caps particles per leaf.
  BarnesHutTree(const nbody::Particles& particles, double box,
                int leaf_size = 16);

  /// Accumulate (+=) short-range accelerations at the given targets with
  /// G = 1 (callers scale by G).  `theta`: opening angle.  If params.rcut
  /// > 0, subtrees entirely beyond the cutoff are pruned — this is what
  /// makes TreePM short-range walks O(N) per target.
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
  double total_mass() const { return nodes_.empty() ? 0.0 : nodes_[0].mass; }

 private:
  struct Node {
    double cx, cy, cz;   // geometric center
    double half;         // half side length
    double comx, comy, comz;
    double mass;
    int children[8];     // index into nodes_, -1 if absent
    int first, count;    // leaf particle range into perm_
    bool leaf;
  };

  int build(int first, int count, double cx, double cy, double cz,
            double half, int depth);
  void walk(int node, double tx, double ty, double tz, double theta2,
            double rcut, std::vector<float>& sx, std::vector<float>& sy,
            std::vector<float>& sz, std::vector<float>& sm) const;
  double min_image(double d) const;

  const nbody::Particles* particles_;
  double box_;
  int leaf_size_;
  std::vector<int> perm_;
  std::vector<Node> nodes_;
};

}  // namespace v6d::gravity
