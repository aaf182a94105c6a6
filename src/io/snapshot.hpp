// Binary snapshot / checkpoint files for particles and phase space.
//
// Format: fixed little-endian header (magic, version, payload dims)
// followed by raw arrays.  The paper's end-to-end timing includes snapshot
// I/O (§7.2); the TTS bench writes these snapshots for the same reason,
// and the driver subsystem builds its checkpoint/restart on them.
//
// Readers validate the header before touching the payload and report what
// went wrong: a truncated file (kShortRead) is distinguishable from a file
// written by a different format version (kVersionMismatch) or a corrupted
// header (kBadMagic / kBadHeader), so restart tooling can tell "retry the
// previous checkpoint" apart from "wrong file entirely".
//
// A phase space has one encoding, a header and its blocks, whether it is
// a file (a checkpoint shard) or a message (a brick gathered to rank 0):
// encode_phase_space and decode_phase_space are the code that writes and
// reads both.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nbody/particles.hpp"
#include "vlasov/brick.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::io {

enum class SnapshotStatus {
  kOk = 0,
  kOpenFailed,       // file missing / unreadable / uncreatable
  kBadMagic,         // header present but not a snapshot of this kind
  kVersionMismatch,  // recognized file, unsupported format version
  kBadHeader,        // dims/counts fail validation (corrupt or hostile)
  kShortRead,        // header OK but the payload is truncated
  kWriteFailed,      // fwrite fell short (disk full, etc.)
};

/// Human-readable status name ("ok", "short-read", ...).
const char* to_string(SnapshotStatus status);

/// Format version written by this build (bumped on layout changes).
unsigned snapshot_version();

SnapshotStatus write_particles(const std::string& path,
                               const nbody::Particles& particles);
SnapshotStatus read_particles(const std::string& path,
                              nbody::Particles& particles);

/// The phase-space encoding of `f`: a 116-byte header (magic, version,
/// dims, geometry), then every block in (ix, iy, iz) order.
std::vector<std::uint8_t> encode_phase_space(const vlasov::PhaseSpace& f);
/// Parse an encoding in place: on kOk `brick` points into `bytes`, which
/// must hold exactly the header and the blocks it announces.  Refuses a
/// short encoding (kShortRead), a foreign magic or version, and dims or a
/// length that fail validation (kBadHeader); vlasov::BrickPlacement
/// checks the geometry.
SnapshotStatus decode_phase_space(std::span<const std::uint8_t> bytes,
                                  vlasov::BrickView& brick);

SnapshotStatus write_phase_space(const std::string& path,
                                 const vlasov::PhaseSpace& f);
/// Read the phase-space file at `path` into `bytes` and decode it there
/// (`brick` points into `bytes`), or into a PhaseSpace of its own.
SnapshotStatus read_phase_space(const std::string& path,
                                std::vector<std::uint8_t>& bytes,
                                vlasov::BrickView& brick);
SnapshotStatus read_phase_space(const std::string& path,
                                vlasov::PhaseSpace& f);

}  // namespace v6d::io
