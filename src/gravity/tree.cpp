#include "gravity/tree.hpp"

#include <algorithm>
#include <cmath>

#include "gravity/pp_kernel_impl.hpp"
#include "simd/dispatch.hpp"

namespace v6d::gravity {

namespace {
constexpr int kMaxDepth = 40;
/// Targets per OpenMP work item, one call of the tiered walk-and-sum body.
constexpr std::size_t kChunkTargets = 32;
}  // namespace

BarnesHutTree::BarnesHutTree(const nbody::Particles& particles, double box,
                             int leaf_size)
    : box_(box), leaf_size_(leaf_size) {
  const std::size_t n = particles.size();
  std::vector<int> perm(n);  // leaf order -> particle index
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  nodes_.reserve(2 * n / std::max(1, leaf_size) + 64);
  if (n > 0)
    build(particles, perm, 0, static_cast<int>(n), 0.5 * box, 0.5 * box,
          0.5 * box, 0.5 * box, 0);
  total_mass_ = particles.mass * static_cast<double>(n);
  particle_mass_ = static_cast<float>(particles.mass);
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::size_t>(perm[i]);
    px_[i] = particles.x[q];
    py_[i] = particles.y[q];
    pz_[i] = particles.z[q];
  }
}

int BarnesHutTree::build(const nbody::Particles& p, std::vector<int>& perm,
                         int first, int count, double cx, double cy,
                         double cz, double half, int depth) {
  const int idx = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  Node node{};
  node.radius = half * std::sqrt(3.0);
  const double size = 2.0 * half;
  node.size2 = size * size;
  node.first = first;
  node.count = count;

  // Center of mass over the range.
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (int i = first; i < first + count; ++i) {
    const int q = perm[static_cast<std::size_t>(i)];
    mx += p.x[static_cast<std::size_t>(q)];
    my += p.y[static_cast<std::size_t>(q)];
    mz += p.z[static_cast<std::size_t>(q)];
  }
  node.mass = static_cast<float>(p.mass * count);
  node.comx = mx / count;
  node.comy = my / count;
  node.comz = mz / count;

  if (count > leaf_size_ && depth < kMaxDepth) {
    // Counting sort of the range into octants; the children follow in
    // octant order, each subtree contiguous.
    auto octant = [&](int q) {
      const auto s = static_cast<std::size_t>(q);
      return (p.x[s] >= cx ? 4 : 0) | (p.y[s] >= cy ? 2 : 0) |
             (p.z[s] >= cz ? 1 : 0);
    };
    int counts[8] = {0};
    for (int i = first; i < first + count; ++i)
      ++counts[octant(perm[static_cast<std::size_t>(i)])];
    int starts[8], cursor[8];
    int acc = first;
    for (int o = 0; o < 8; ++o) {
      starts[o] = cursor[o] = acc;
      acc += counts[o];
    }
    std::vector<int> scratch(perm.begin() + first,
                             perm.begin() + first + count);
    for (int q : scratch)
      perm[static_cast<std::size_t>(cursor[octant(q)]++)] = q;

    const double q_half = 0.5 * half;
    for (int o = 0; o < 8; ++o) {
      if (counts[o] == 0) continue;
      const double ox = cx + ((o & 4) ? q_half : -q_half);
      const double oy = cy + ((o & 2) ? q_half : -q_half);
      const double oz = cz + ((o & 1) ? q_half : -q_half);
      build(p, perm, starts[o], counts[o], ox, oy, oz, q_half, depth + 1);
    }
  }
  node.end = static_cast<int>(nodes_.size());
  nodes_[static_cast<std::size_t>(idx)] = node;
  return idx;
}

/// The walk and the kernel sum over a chunk of targets.
struct TreeWalk {
  using Node = BarnesHutTree::Node;

  /// One thread's interaction list, reused for all its targets: source
  /// displacements from the target and source masses, in float for the
  /// SIMD kernel, copied to double for the reference.  It grows only
  /// when the entries to add would not fit, so its length stays the
  /// longest list the thread has walked.
  struct List {
    std::vector<float> x, y, z, m;
    std::vector<double> dx, dy, dz, dm;
    std::size_t size = 0;

    /// Room for `more` entries past size.
    void make_room(std::size_t more) {
      if (size + more <= x.size()) return;
      const std::size_t grown = std::max(size + more, 2 * x.size());
      for (auto* v : {&x, &y, &z, &m}) v->resize(grown);
    }
  };

  /// One chunk of targets, and what the body reads besides the tree.
  struct Chunk {
    const double *tx, *ty, *tz;
    std::size_t begin, end;
    const PpKernelParams* params;
    const CutoffPoly* poly;
    double theta2;
    bool use_simd;
    double *ax, *ay, *az;
  };

  /// The interaction list of the target (tx, ty, tz), in the order of a
  /// recursive preorder walk that visits children in octant order.
  static void walk(const BarnesHutTree& tree, double tx, double ty,
                   double tz, double theta2, double rcut, List& list) {
    const double box = tree.box_;
    const double half_box = 0.5 * box;
    // As selects, so the leaf loop below vectorizes.
    const auto min_image = [box, half_box](double d) {
      return d > half_box ? d - box : d < -half_box ? d + box : d;
    };
    const Node* nodes = tree.nodes_.data();
    const int n_nodes = static_cast<int>(tree.nodes_.size());
    int i = 0;
    while (i < n_nodes) {
      const Node& node = nodes[i];
      const double dx = min_image(node.comx - tx);
      const double dy = min_image(node.comy - ty);
      const double dz = min_image(node.comz - tz);
      const double d2 = dx * dx + dy * dy + dz * dz;
      // Cutoff pruning: if even the nearest point of the node is outside
      // rcut, the short-range force from the whole subtree vanishes.
      if (rcut > 0.0 && std::sqrt(d2) - node.radius > rcut) {
        i = node.end;
        continue;
      }
      if (node.end == i + 1) {
        // A leaf: its particles, displaced from the target.
        const auto n = static_cast<std::size_t>(node.count);
        const auto first = static_cast<std::size_t>(node.first);
        list.make_room(n);
        const double* px = tree.px_.data() + first;
        const double* py = tree.py_.data() + first;
        const double* pz = tree.pz_.data() + first;
        float* ex = list.x.data() + list.size;
        float* ey = list.y.data() + list.size;
        float* ez = list.z.data() + list.size;
        float* em = list.m.data() + list.size;
        for (std::size_t k = 0; k < n; ++k) {
          ex[k] = static_cast<float>(min_image(px[k] - tx));
          ey[k] = static_cast<float>(min_image(py[k] - ty));
          ez[k] = static_cast<float>(min_image(pz[k] - tz));
          em[k] = tree.particle_mass_;
        }
        list.size += n;
        i = node.end;
      } else if (node.size2 < theta2 * d2) {
        // Accept as monopole pseudo-particle.
        list.make_room(1);
        list.x[list.size] = static_cast<float>(dx);
        list.y[list.size] = static_cast<float>(dy);
        list.z[list.size] = static_cast<float>(dz);
        list.m[list.size] = node.mass;
        ++list.size;
        i = node.end;
      } else {
        ++i;  // the first child
      }
    }
  }

  /// Walk and sum each target of the chunk with the PP kernel at L source
  /// lanes; returns the interaction-list entries evaluated.
  template <int L>
  static std::uint64_t chunk(const BarnesHutTree& tree, const Chunk& c,
                             List& list) {
    std::uint64_t entries = 0;
    for (std::size_t t = c.begin; t < c.end; ++t) {
      list.size = 0;
      walk(tree, c.tx[t], c.ty[t], c.tz[t], c.theta2, c.params->rcut, list);
      entries += list.size;
      // The list holds displacements: the target sits at the origin.
      if (c.use_simd) {
        const float origin = 0.0f;
        float f[3] = {0.0f, 0.0f, 0.0f};
        detail::pp_accumulate<L>(&origin, &origin, &origin, 1,
                                 list.x.data(), list.y.data(), list.z.data(),
                                 list.m.data(), list.size, *c.params,
                                 *c.poly, &f[0], &f[1], &f[2]);
        c.ax[t] += f[0];
        c.ay[t] += f[1];
        c.az[t] += f[2];
      } else {
        const auto n = static_cast<std::ptrdiff_t>(list.size);
        list.dx.assign(list.x.begin(), list.x.begin() + n);
        list.dy.assign(list.y.begin(), list.y.begin() + n);
        list.dz.assign(list.z.begin(), list.z.begin() + n);
        list.dm.assign(list.m.begin(), list.m.begin() + n);
        const double origin = 0.0;
        pp_accumulate_scalar(&origin, &origin, &origin, 1, list.dx.data(),
                             list.dy.data(), list.dz.data(), list.dm.data(),
                             list.size, *c.params, c.ax + t, c.ay + t,
                             c.az + t);
      }
    }
    return entries;
  }
};

namespace {

using ChunkFn = std::uint64_t (*)(const BarnesHutTree&,
                                  const TreeWalk::Chunk&, TreeWalk::List&);

std::uint64_t walk_chunk_baseline(const BarnesHutTree& tree,
                                  const TreeWalk::Chunk& c,
                                  TreeWalk::List& list) {
  return TreeWalk::chunk<simd::sweep_lanes(simd::SweepTier::kBaseline)>(
      tree, c, list);
}
V6D_SWEEP_TIER_AVX512 std::uint64_t walk_chunk_avx512(
    const BarnesHutTree& tree, const TreeWalk::Chunk& c,
    TreeWalk::List& list) {
  return TreeWalk::chunk<simd::sweep_lanes(simd::SweepTier::kAvx512)>(
      tree, c, list);
}

}  // namespace

void BarnesHutTree::accumulate(const double* tx, const double* ty,
                               const double* tz, std::size_t nt,
                               const PpKernelParams& params,
                               const CutoffPoly& poly, double theta,
                               bool use_simd, double* ax, double* ay,
                               double* az, TreeStats* stats) const {
  if (nodes_.empty() || nt == 0) return;
  // Interaction lists hold float displacements from the target: float
  // staging stays accurate because |displacement| <= rcut << box.
  const TreeWalk::Chunk all{.tx = tx, .ty = ty, .tz = tz,
                            .begin = 0, .end = nt,
                            .params = &params, .poly = &poly,
                            .theta2 = theta * theta, .use_simd = use_simd,
                            .ax = ax, .ay = ay, .az = az};
  const ChunkFn body = simd::for_sweep_tier<ChunkFn>(
      simd::sweep_tier(), walk_chunk_baseline, walk_chunk_avx512);
  const std::size_t chunks = (nt + kChunkTargets - 1) / kChunkTargets;
  std::uint64_t entries = 0;
#ifdef _OPENMP
#pragma omp parallel if (chunks > 1) reduction(+ : entries)
#endif
  {
    TreeWalk::List list;
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (std::size_t k = 0; k < chunks; ++k) {
      TreeWalk::Chunk c = all;
      c.begin = k * kChunkTargets;
      c.end = std::min(nt, c.begin + kChunkTargets);
      entries += body(*this, c, list);
    }
  }
  if (stats) stats->p2p_interactions += entries;
}

void BarnesHutTree::accelerations(const nbody::Particles& particles,
                                  const PpKernelParams& params,
                                  const CutoffPoly& poly, double theta,
                                  bool use_simd, std::vector<double>& ax,
                                  std::vector<double>& ay,
                                  std::vector<double>& az,
                                  TreeStats* stats) const {
  const std::size_t n = particles.size();
  ax.assign(n, 0.0);
  ay.assign(n, 0.0);
  az.assign(n, 0.0);
  accumulate(particles.x.data(), particles.y.data(), particles.z.data(), n,
             params, poly, theta, use_simd, ax.data(), ay.data(), az.data(),
             stats);
}

}  // namespace v6d::gravity
