// The short-range tree pass as a recursive walk, the oracle of
// gravity::BarnesHutTree's loop walk: the same octree (leaf_size cap,
// depth cap 40, children in octant order), walked recursively into
// per-target vectors, each list then summed in the PP kernel's 4-lane
// order (pp_reference.hpp) or by the double reference kernel.  The
// production walk must give every target the same list, entry for entry,
// and so the same bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gravity/pp_kernel.hpp"
#include "nbody/particles.hpp"
#include "pp_reference.hpp"

namespace v6d::tree_oracle {

class RecursiveTree {
 public:
  RecursiveTree(const nbody::Particles& particles, double box, int leaf_size)
      : p_(particles), box_(box), leaf_size_(leaf_size) {
    const std::size_t n = particles.size();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<int>(i);
    if (n > 0)
      build(0, static_cast<int>(n), 0.5 * box, 0.5 * box, 0.5 * box,
            0.5 * box, 0);
  }

  /// Adds (+=) the short-range accelerations at the targets, as
  /// BarnesHutTree::accumulate does, and returns the list entries.
  std::uint64_t accumulate(const double* tx, const double* ty,
                           const double* tz, std::size_t nt,
                           const gravity::PpKernelParams& params,
                           const gravity::CutoffPoly& poly, double theta,
                           bool use_simd, double* ax, double* ay,
                           double* az) const {
    std::uint64_t entries = 0;
    if (nodes_.empty()) return entries;
    for (std::size_t t = 0; t < nt; ++t) {
      std::vector<float> s[3], sm;
      walk(0, tx[t], ty[t], tz[t], theta * theta, params.rcut, s, sm);
      entries += sm.size();
      if (use_simd) {
        const std::vector<float> origin[3] = {{0.0f}, {0.0f}, {0.0f}};
        std::vector<float> a[3] = {{0.0f}, {0.0f}, {0.0f}};
        pp_reference::four_lane_sum(origin, s, sm, sm.size(), params, poly, a);
        ax[t] += a[0][0];
        ay[t] += a[1][0];
        az[t] += a[2][0];
      } else {
        const std::vector<double> dx(s[0].begin(), s[0].end()),
            dy(s[1].begin(), s[1].end()), dz(s[2].begin(), s[2].end()),
            dm(sm.begin(), sm.end());
        const double origin = 0.0;
        gravity::pp_accumulate_scalar(&origin, &origin, &origin, 1,
                                      dx.data(), dy.data(), dz.data(),
                                      dm.data(), dm.size(), params, ax + t,
                                      ay + t, az + t);
      }
    }
    return entries;
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    double half;
    double comx, comy, comz;
    double mass;
    int children[8];
    int first, count;
    bool leaf;
  };

  int build(int first, int count, double cx, double cy, double cz,
            double half, int depth) {
    const int idx = static_cast<int>(nodes_.size());
    nodes_.push_back({});
    Node node{};
    node.half = half;
    node.first = first;
    node.count = count;
    std::fill(std::begin(node.children), std::end(node.children), -1);
    double mx = 0.0, my = 0.0, mz = 0.0;
    for (int i = first; i < first + count; ++i) {
      const auto q = static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)]);
      mx += p_.x[q];
      my += p_.y[q];
      mz += p_.z[q];
    }
    node.mass = p_.mass * count;
    node.comx = mx / count;
    node.comy = my / count;
    node.comz = mz / count;
    node.leaf = count <= leaf_size_ || depth >= 40;
    if (!node.leaf) {
      auto octant = [&](int q) {
        const auto s = static_cast<std::size_t>(q);
        return (p_.x[s] >= cx ? 4 : 0) | (p_.y[s] >= cy ? 2 : 0) |
               (p_.z[s] >= cz ? 1 : 0);
      };
      int counts[8] = {0};
      for (int i = first; i < first + count; ++i)
        ++counts[octant(perm_[static_cast<std::size_t>(i)])];
      int starts[8], cursor[8];
      int acc = first;
      for (int o = 0; o < 8; ++o) {
        starts[o] = cursor[o] = acc;
        acc += counts[o];
      }
      const std::vector<int> scratch(perm_.begin() + first,
                                     perm_.begin() + first + count);
      for (int q : scratch)
        perm_[static_cast<std::size_t>(cursor[octant(q)]++)] = q;
      const double q_half = 0.5 * half;
      for (int o = 0; o < 8; ++o) {
        if (counts[o] == 0) continue;
        node.children[o] =
            build(starts[o], counts[o], cx + ((o & 4) ? q_half : -q_half),
                  cy + ((o & 2) ? q_half : -q_half),
                  cz + ((o & 1) ? q_half : -q_half), q_half, depth + 1);
      }
    }
    nodes_[static_cast<std::size_t>(idx)] = node;
    return idx;
  }

  double min_image(double d) const {
    if (d > 0.5 * box_) return d - box_;
    if (d < -0.5 * box_) return d + box_;
    return d;
  }

  void walk(int node_idx, double tx, double ty, double tz, double theta2,
            double rcut, std::vector<float>* s,
            std::vector<float>& sm) const {
    const Node& node = nodes_[static_cast<std::size_t>(node_idx)];
    const double dx = min_image(node.comx - tx);
    const double dy = min_image(node.comy - ty);
    const double dz = min_image(node.comz - tz);
    const double d2 = dx * dx + dy * dy + dz * dz;
    if (rcut > 0.0 && std::sqrt(d2) - node.half * std::sqrt(3.0) > rcut)
      return;
    const double size = 2.0 * node.half;
    if (!node.leaf && size * size < theta2 * d2) {
      s[0].push_back(static_cast<float>(dx));
      s[1].push_back(static_cast<float>(dy));
      s[2].push_back(static_cast<float>(dz));
      sm.push_back(static_cast<float>(node.mass));
      return;
    }
    if (node.leaf) {
      for (int i = node.first; i < node.first + node.count; ++i) {
        const auto q = static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)]);
        s[0].push_back(static_cast<float>(min_image(p_.x[q] - tx)));
        s[1].push_back(static_cast<float>(min_image(p_.y[q] - ty)));
        s[2].push_back(static_cast<float>(min_image(p_.z[q] - tz)));
        sm.push_back(static_cast<float>(p_.mass));
      }
      return;
    }
    for (int c : node.children)
      if (c >= 0) walk(c, tx, ty, tz, theta2, rcut, s, sm);
  }

  const nbody::Particles& p_;
  double box_;
  int leaf_size_;
  std::vector<int> perm_;
  std::vector<Node> nodes_;
};

}  // namespace v6d::tree_oracle
