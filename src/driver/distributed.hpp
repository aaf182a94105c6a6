// Rank pieces of the driver: rank-topology resolution for a configured
// run and the trace flush after its rank threads join.
//
// The run loop itself is Driver::run() (defined in distributed.cpp), one
// loop for every rank count.  At ranks = 1 it steps the scenario-built
// world-1 solver directly; otherwise it slices that solver across comm::run
// thread ranks (hybrid::HybridSolver's slicing constructor).  Every rank
// takes allreduce-agreed CFL steps and writes its own phase-space shard on
// checkpoint (driver/checkpoint.hpp), so the big payload is written
// concurrently — the reason the paper times snapshot I/O as a first-class
// phase (§7.2).
#pragma once

#include <array>
#include <string>

#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::driver {

/// Resolve cfg.ranks / cfg.decomp against the (already built) global
/// solver's grids.  Throws std::invalid_argument when the requested
/// topology is infeasible (indivisible extents or bricks thinner than the
/// ghost width).
std::array<int, 3> resolve_run_decomp(const SimulationConfig& cfg,
                                      const hybrid::HybridSolver& solver);

/// Flush the recorded trace (all ranks' buffers, merged) as Chrome
/// trace_event JSON at `path`, then disable tracing and drop the events.
/// Must run after the rank threads have joined.  Throws on I/O failure.
void write_trace_file(const std::string& path);

}  // namespace v6d::driver
