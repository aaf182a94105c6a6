// Blocking ghost-cell exchange of scalar mesh fields across the brick
// decomposition.
//
// The distributed force solve refills the ghost cells of its force bricks
// with this call before sampling them (CIC reads one ghost layer).  The
// exchange runs axis by axis (x, then y, then z) over slabs that span the
// already-extended transverse range, so edge and corner ghosts are filled
// transitively.  Buffered sends keep periodic rings deadlock-free.
//
// Phase-space halos and deposit folds go through the split plans of
// mesh/halo_plan.hpp instead.
#pragma once

#include "comm/cart.hpp"
#include "mesh/grid.hpp"

namespace v6d::mesh {

/// Exchange all ghost cells of a scalar mesh field.  Single-rank
/// topologies fall back to the periodic self-copy.  Throws
/// std::invalid_argument if a decomposed axis is thinner than the ghost
/// width.
void exchange_grid_halo(Grid3D<double>& g, comm::CartTopology& cart);

}  // namespace v6d::mesh
