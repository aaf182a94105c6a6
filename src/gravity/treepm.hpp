// TreePM force splitting (Bagla 2002; paper §5.1.2).
//
// Total acceleration on a particle = long-range PM force (Gaussian-filtered
// Poisson solve, exp(-k^2 rs^2)) + short-range tree force (complementary
// erfc cutoff).  The split scale rs is a small multiple of the PM cell and
// the short-range cutoff a small multiple of rs, so the tree walk touches
// only local neighborhoods.  The force pass that assembles the two halves
// is hybrid::HybridSolver's (src/hybrid/); these are its tree parameters.
#pragma once

namespace v6d::gravity {

struct TreePmParams {
  double theta = 0.6;          // tree opening angle
  double eps_cells = 0.05;     // Plummer softening in PM-cell units
  double rs_cells = 1.25;      // split scale rs in PM-cell units
  double rcut_over_rs = 4.5;   // short-range cutoff radius / rs
  bool use_simd = true;
  int leaf_size = 16;
  int cutoff_poly_degree = 14;
};

}  // namespace v6d::gravity
