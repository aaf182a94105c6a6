// Versioned checkpoint/restart for driver runs: the one place that knows
// how a run's state is saved and restored.
//
// A checkpoint is a directory:
//   meta           text header: format version, scale factor, step count,
//                  the kick factor the velocities owe, RNG state, payload
//                  names and byte sizes, and the full config echo (doubles
//                  as %.17g, so the round-trip is exact)
//   phase_space.<step>.r<k>.bin
//                  one io::snapshot phase-space shard per rank (rank k's
//                  brick; a serial run writes the one shard .r0), the
//                  encoding HybridSolver::gather_into sends too
//   particles.<step>.bin
//                  the io::snapshot particle payload
//
// A checkpoint holds state, not forces.  The payloads hold the state as
// the step left it: after its drift, owing the step's trailing half-kick
// (hybrid/leapfrog.hpp), whose factor the meta records as `owed_kick`.
// The step-boundary forces are a function of that state and the scale
// factor, so a resumed solver recomputes them on its own ranks before its
// first kick; at the writer's rank count they come out bit for bit as the
// writer had them.  A checkpoint does not synchronize the run, so the
// trajectory does not depend on where checkpoints fall; Driver::run()
// synchronizes after its last one.
//
// Atomicity: payloads carry the step in their names, so writing a new
// checkpoint into the same directory never touches the files the current
// meta references; every payload is written to a tmp file, fsynced and
// renamed, and the meta (written last the same way) is the single commit
// point.  A run killed mid-checkpoint therefore leaves the previous
// checkpoint fully intact — never a torn one.  Superseded payloads are
// garbage-collected after the meta lands.  Restarting rebuilds the solver
// from the echoed config (its launch wiring aside), places the shards
// back into its global phase space, and continues bit-identically with
// the uninterrupted run at the writer's rank count (tests/test_driver.cpp,
// tests/test_parallel.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "driver/config.hpp"
#include "io/snapshot.hpp"
#include "nbody/particles.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::driver {

struct Checkpoint {
  SimulationConfig config;
  double a = 0.0;
  std::int64_t step = 0;
  Xoshiro256::State rng;
  /// The kick factor the velocities owe on the forces at `a` (finite).
  double owed_kick = 0.0;
  bool has_particles = false;
  /// Particle payload file name inside the checkpoint directory; filled in
  /// by write_checkpoint and read back from the meta.
  std::string particles_file;
  /// The phase space's per-rank shards (rank r's brick in shard_files[r],
  /// named by shard_file_name), written concurrently by the ranks with
  /// write_phase_space_shard *before* the meta commits.  The meta lists
  /// them so garbage collection keeps them and resume knows the rank
  /// count they were written with.  Empty when the run has no neutrinos.
  std::vector<std::string> shard_files;
  /// Byte size of every payload the meta references, recorded at commit
  /// time (`bytes.<name>=` meta lines).  Readers use it to reject torn
  /// checkpoints — a shard that exists but is short means the commit
  /// protocol was violated (e.g. a crash raced the rename on a
  /// non-atomic filesystem).
  std::map<std::string, std::uint64_t> payload_bytes;
};

/// Format version written by this build.
unsigned checkpoint_version();

/// File name of rank `rank`'s phase-space shard of the checkpoint at
/// `step`.
std::string shard_file_name(std::int64_t step, int rank);

/// Durably write `brick` as rank `rank`'s shard of the checkpoint at
/// `step` into `dir` (which must exist).  Every rank calls this before
/// rank 0 commits the meta that lists the shards.  On failure *error
/// names the offending file and the OS cause.
io::SnapshotStatus write_phase_space_shard(const std::string& dir,
                                           std::int64_t step, int rank,
                                           const vlasov::PhaseSpace& brick,
                                           std::string* error = nullptr);

/// Commit `meta` into `dir` (created if needed): write the particle
/// payload when it flags one, record the size of every payload it
/// references (its shards included), then publish the meta.  On failure
/// *error names the offending file.
io::SnapshotStatus write_checkpoint(const std::string& dir,
                                    const Checkpoint& meta,
                                    const nbody::Particles* cdm,
                                    std::string* error = nullptr);

/// Read and check the meta before any payload is read.  Refuses (with a
/// typed status, *error naming the field) a meta of another version
/// (kVersionMismatch: versions 1-3 are retired), one that names a global
/// phase-space payload, one that references a payload without a recorded
/// `bytes.` size, any number field that does not parse to its end (`a`
/// must also be finite and > 0, `owed_kick` finite), a config echo
/// value that does not parse as its key's type (kBadHeader naming the
/// `cfg.` field), and an echo that lacks a key SimulationConfig::to_kv()
/// writes (kShortRead naming the `cfg.` field).  Never throws on a
/// malformed meta.
io::SnapshotStatus read_checkpoint_meta(const std::string& dir,
                                        Checkpoint& meta,
                                        std::string* error = nullptr);

/// Check that every payload `meta` references exists with the byte size
/// recorded at commit time.  A failure means the checkpoint is torn and
/// must not be resumed from; *error names the offending payload.
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
/// publishes fully durable content.
bool fsync_file(const std::string& path);

/// Read the payloads `meta` references into a freshly built solver's
/// state.  The shards are placed into the global phase space `f` by their
/// geometry origins — whatever rank count wrote them — through one
/// vlasov::BrickPlacement and must tile it exactly: a shard that does not
/// fit, an overlap, or an uncovered cell is refused (kBadHeader).  The
/// particles are read when flagged.
io::SnapshotStatus read_checkpoint_payload(const std::string& dir,
                                           const Checkpoint& meta,
                                           vlasov::PhaseSpace& f,
                                           nbody::Particles& cdm,
                                           std::string* error = nullptr);

}  // namespace v6d::driver
