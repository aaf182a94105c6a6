// Versioned checkpoint/restart for driver runs.
//
// A checkpoint is a directory:
//   meta           text header: format version, scale factor, step count,
//                  RNG state, payload flags, and the full config echo
//                  (doubles as %.17g, so the round-trip is exact)
//   phase_space.<step>.r<k>.bin / particles.<step>.bin
//                  io::snapshot payloads (file names recorded in the meta):
//                  one phase-space shard per rank; checkpoints written
//                  before serial runs sharded hold one global
//                  phase_space.<step>.bin instead, which is still read
//   forces.<step>.bin
//                  the solver's step-boundary force cache — accelerations
//                  evaluated from the post-drift state, which the next
//                  step's leading kick reuses; recomputing them from the
//                  post-kick f matches only to rounding, so restart would
//                  not be bit-identical without them
//
// Atomicity: payloads carry the step in their names, so writing a new
// checkpoint into the same directory never touches the files the current
// meta references; the meta (written last, via a tmp-file rename) is the
// single commit point.  A run killed mid-checkpoint therefore leaves the
// previous checkpoint fully intact — never a torn one.  Superseded
// payloads are garbage-collected after the meta lands.  Restarting
// rebuilds the solver from the echoed config, overwrites its state from
// the payloads, and continues bit-identically with the uninterrupted run
// (tests/test_driver.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "io/snapshot.hpp"
#include "nbody/particles.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::driver {

struct Checkpoint {
  SimulationConfig config;
  double a = 0.0;
  std::int64_t step = 0;
  Xoshiro256::State rng;
  bool has_phase_space = false;
  bool has_particles = false;
  bool has_forces = false;
  /// Payload file names inside the checkpoint directory; filled in by
  /// write_checkpoint and read back from the meta.
  std::string phase_space_file, particles_file, forces_file;
  /// Runs shard the phase space: one io::snapshot payload per rank (rank
  /// r's brick in shard_files[r]; one shard at ranks = 1), written
  /// concurrently by the rank threads *before* the meta commits.  Mutually
  /// exclusive with has_phase_space, the single global payload that
  /// checkpoints written before serial runs sharded still carry; the meta
  /// lists the shards so garbage collection keeps them and resume knows
  /// the rank count they were written with.
  std::vector<std::string> shard_files;
  /// Byte size of every payload the meta references, recorded at commit
  /// time (`bytes.<name>=` meta lines).  Readers use it to reject torn
  /// checkpoints — a shard that exists but is short means the commit
  /// protocol was violated (e.g. a crash raced the rename on a
  /// non-atomic filesystem).  Empty for pre-existing checkpoints, which
  /// then only get an existence check.
  std::map<std::string, std::uint64_t> payload_bytes;
};

/// Format version written by this build.
unsigned checkpoint_version();

/// Write `meta` plus the payloads it flags into `dir` (created if needed).
/// On failure *error names the offending file.
io::SnapshotStatus write_checkpoint(
    const std::string& dir, const Checkpoint& meta,
    const vlasov::PhaseSpace* f, const nbody::Particles* cdm,
    const hybrid::HybridSolver::StepForces* forces,
    std::string* error = nullptr);

io::SnapshotStatus read_checkpoint_meta(const std::string& dir,
                                        Checkpoint& meta,
                                        std::string* error = nullptr);

/// Check that every payload `meta` references exists with the byte size
/// recorded at commit time (existence only for metas without recorded
/// sizes).  A failure means the checkpoint is torn and must not be
/// resumed from; *error names the offending payload.
io::SnapshotStatus validate_checkpoint_payloads(const std::string& dir,
                                                const Checkpoint& meta,
                                                std::string* error = nullptr);

/// Garbage-collect debris a crashed worker can leave in a checkpoint
/// directory: in-flight `*.tmp` files always; when the committed meta is
/// itself unreadable or torn (fails validate_checkpoint_payloads), the
/// meta and every payload go too, so the next launch starts fresh
/// instead of tripping over a corpse.  A valid checkpoint only loses
/// payloads it does not reference.  Best-effort and idempotent.
void gc_checkpoint_leftovers(const std::string& dir);

/// Flush a written file's bytes (fsync by path) so a following rename
/// publishes fully durable content.  Used by the checkpoint commit
/// protocol and by distributed shard writers.
bool fsync_file(const std::string& path);

/// Read the payloads flagged in `meta` into the supplied containers.
io::SnapshotStatus read_checkpoint_payload(
    const std::string& dir, const Checkpoint& meta, vlasov::PhaseSpace* f,
    nbody::Particles* cdm, hybrid::HybridSolver::StepForces* forces,
    std::string* error = nullptr);

/// Step-boundary force-cache payload I/O (one file of the checkpoint
/// directory), exposed so distributed checkpointing (driver/distributed)
/// can reuse the exact on-disk format.
io::SnapshotStatus write_step_forces(
    const std::string& path, const hybrid::HybridSolver::StepForces& forces);
io::SnapshotStatus read_step_forces(const std::string& path,
                                    hybrid::HybridSolver::StepForces& forces);

}  // namespace v6d::driver
