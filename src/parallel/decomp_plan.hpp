// Rank-decomposition planning for distributed runs.
//
// A plan maps `ranks` onto a 3-D Cartesian topology subject to the
// constraints the distributed solver needs:
//   * every decomposed axis divides the Vlasov spatial extent evenly (the
//     local bricks of the Vlasov grid and the PM mesh must cover the same
//     physical region, so remainder cells are rejected rather than
//     silently misaligned);
//   * the local Vlasov extent of a decomposed axis is at least the sweep
//     ghost width (kStencilGhost), and the local PM extent at least the
//     mesh ghost width — smaller bricks would corrupt the halo exchange
//     (see mesh::GhostFaces::require_fits in mesh/ghost_faces.hpp);
//   * the PM mesh divides evenly along decomposed axes as well.
//
// choose_decomp() enumerates all factorizations of `ranks` and picks the
// feasible one with the smallest halo surface; parse_decomp() accepts an
// explicit "DXxDYxDZ" spec from the `decomp=` config key.
#pragma once

#include <array>
#include <string>

namespace v6d::parallel {

/// Constraints of one distributed run.
struct DecompConstraints {
  std::array<int, 3> vlasov{0, 0, 0};  // global Vlasov spatial extents
                                       // ({0,0,0} = no phase space)
  int pm_grid = 0;                     // PM mesh per side
  int vlasov_ghost = 3;                // spatial ghost width of f
  int pm_ghost = 2;                    // ghost width of the PM grids
};

/// Parse "DXxDYxDZ" (e.g. "2x2x1").  "" and "auto" return {0, 0, 0},
/// meaning "let choose_decomp pick".  Throws std::invalid_argument on
/// malformed specs.
std::array<int, 3> parse_decomp(const std::string& spec);

/// Throws std::invalid_argument unless `dims` multiplies to `ranks` and
/// satisfies every constraint above.
void validate_decomp(const std::array<int, 3>& dims, int ranks,
                     const DecompConstraints& c);

/// The feasible factorization of `ranks` with the smallest local halo
/// surface (most-cubic bricks).  Throws std::invalid_argument when no
/// factorization is feasible for the given grids.
std::array<int, 3> choose_decomp(int ranks, const DecompConstraints& c);

/// parse + validate, or choose when the spec is empty/"auto".
std::array<int, 3> resolve_decomp(const std::string& spec, int ranks,
                                  const DecompConstraints& c);

}  // namespace v6d::parallel
