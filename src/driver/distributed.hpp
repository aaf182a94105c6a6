// Rank pieces of the driver: rank-topology resolution for a configured
// run and checkpoint-shard assembly for resume.
//
// The run loop itself is Driver::run() (defined in distributed.cpp), one
// loop for every rank count.  At ranks = 1 it steps the scenario-built
// world-1 solver directly; otherwise it slices that solver across comm::run
// thread ranks (hybrid::HybridSolver's slicing constructor).  Every rank
// takes allreduce-agreed CFL steps and writes its own phase-space shard on
// checkpoint, so the big payload is written concurrently — the reason the
// paper times snapshot I/O as a first-class phase (§7.2).
#pragma once

#include <array>
#include <string>

#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::driver {

/// Resolve cfg.ranks / cfg.decomp against the (already built) global
/// solver's grids.  Throws std::invalid_argument when the requested
/// topology is infeasible (indivisible extents or bricks thinner than the
/// ghost width).
std::array<int, 3> resolve_run_decomp(const SimulationConfig& cfg,
                                      const hybrid::HybridSolver& solver);

/// Read every per-rank shard listed in `meta` and copy its interior into
/// the global phase space (placement from each shard's geometry origin).
/// Used by Driver::resume; the ranks/decomp of the resumed run may even
/// differ from the writing run — the global state is assembled first and
/// re-sharded on the next run() (bit-identical only when they match).
io::SnapshotStatus assemble_phase_space_shards(const std::string& dir,
                                               const Checkpoint& meta,
                                               vlasov::PhaseSpace& global,
                                               std::string* error = nullptr);

/// Flush the recorded trace (all ranks' buffers, merged) as Chrome
/// trace_event JSON at `path`, then disable tracing and drop the events.
/// Must run after the rank threads have joined.  Throws on I/O failure.
void write_trace_file(const std::string& path);

}  // namespace v6d::driver
