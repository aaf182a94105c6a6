#include "io/snapshot.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "vlasov/sl_mpp5.hpp"

namespace v6d::io {

namespace {

constexpr std::uint32_t kParticlesMagic = 0x76364e42;   // "v6NB"
constexpr std::uint32_t kPhaseSpaceMagic = 0x76365653;  // "v6VS"
constexpr std::uint32_t kVersion = 1;

// Upper bound on any single payload we will allocate for (1 TiB); header
// counts beyond this are treated as corruption, not as a real request.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 40;

struct FileCloser {
  void operator()(std::FILE* fp) const {
    if (fp) std::fclose(fp);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <class T>
bool write_raw(std::FILE* fp, const T* data, std::size_t count) {
  return std::fwrite(data, sizeof(T), count, fp) == count;
}
template <class T>
bool read_raw(std::FILE* fp, T* data, std::size_t count) {
  return std::fread(data, sizeof(T), count, fp) == count;
}

/// Size of the file behind `fp` without disturbing the read position.
long file_size(std::FILE* fp) {
  const long pos = std::ftell(fp);
  if (pos < 0 || std::fseek(fp, 0, SEEK_END) != 0) return -1;
  const long size = std::ftell(fp);
  if (std::fseek(fp, pos, SEEK_SET) != 0) return -1;
  return size;
}

/// acc *= factor with an overflow-safe bound against kMaxPayloadBytes.
bool mul_within_cap(std::uint64_t& acc, std::uint64_t factor) {
  if (factor == 0 || acc > kMaxPayloadBytes / factor) return false;
  acc *= factor;
  return true;
}

/// Common magic/version prologue for both readers.
SnapshotStatus read_prologue(std::FILE* fp, std::uint32_t expected_magic) {
  std::uint32_t magic = 0, version = 0;
  if (!read_raw(fp, &magic, 1)) return SnapshotStatus::kShortRead;
  if (magic != expected_magic) return SnapshotStatus::kBadMagic;
  if (!read_raw(fp, &version, 1)) return SnapshotStatus::kShortRead;
  if (version != kVersion) return SnapshotStatus::kVersionMismatch;
  return SnapshotStatus::kOk;
}

}  // namespace

const char* to_string(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kOk:
      return "ok";
    case SnapshotStatus::kOpenFailed:
      return "open-failed";
    case SnapshotStatus::kBadMagic:
      return "bad-magic";
    case SnapshotStatus::kVersionMismatch:
      return "version-mismatch";
    case SnapshotStatus::kBadHeader:
      return "bad-header";
    case SnapshotStatus::kShortRead:
      return "short-read";
    case SnapshotStatus::kWriteFailed:
      return "write-failed";
  }
  return "unknown";
}

unsigned snapshot_version() { return kVersion; }

SnapshotStatus write_particles(const std::string& path,
                               const nbody::Particles& particles) {
  FilePtr fp(std::fopen(path.c_str(), "wb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  const std::uint32_t magic = kParticlesMagic, version = kVersion;
  const std::uint64_t n = particles.size();
  if (!write_raw(fp.get(), &magic, 1) || !write_raw(fp.get(), &version, 1) ||
      !write_raw(fp.get(), &n, 1) ||
      !write_raw(fp.get(), &particles.mass, 1))
    return SnapshotStatus::kWriteFailed;
  for (const auto* v : {&particles.x, &particles.y, &particles.z,
                        &particles.ux, &particles.uy, &particles.uz})
    if (!write_raw(fp.get(), v->data(), v->size()))
      return SnapshotStatus::kWriteFailed;
  if (!write_raw(fp.get(), particles.id.data(), particles.id.size()))
    return SnapshotStatus::kWriteFailed;
  return SnapshotStatus::kOk;
}

SnapshotStatus read_particles(const std::string& path,
                              nbody::Particles& particles) {
  FilePtr fp(std::fopen(path.c_str(), "rb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  const SnapshotStatus prologue = read_prologue(fp.get(), kParticlesMagic);
  if (prologue != SnapshotStatus::kOk) return prologue;
  std::uint64_t n = 0;
  if (!read_raw(fp.get(), &n, 1)) return SnapshotStatus::kShortRead;
  // 6 coordinate arrays of doubles + ids + mass; validate the advertised
  // count against both the sanity cap and the actual file size before
  // allocating anything.
  const std::uint64_t per_particle = 6 * sizeof(double) + sizeof(std::uint64_t);
  if (n > kMaxPayloadBytes / per_particle) return SnapshotStatus::kBadHeader;
  const std::uint64_t header_bytes = 2 * sizeof(std::uint32_t) +
                                     sizeof(std::uint64_t) + sizeof(double);
  const long size = file_size(fp.get());
  if (size >= 0 &&
      static_cast<std::uint64_t>(size) < header_bytes + n * per_particle)
    return SnapshotStatus::kShortRead;
  particles.resize(static_cast<std::size_t>(n));
  if (!read_raw(fp.get(), &particles.mass, 1))
    return SnapshotStatus::kShortRead;
  for (auto* v : {&particles.x, &particles.y, &particles.z, &particles.ux,
                  &particles.uy, &particles.uz})
    if (!read_raw(fp.get(), v->data(), v->size()))
      return SnapshotStatus::kShortRead;
  if (!read_raw(fp.get(), particles.id.data(), particles.id.size()))
    return SnapshotStatus::kShortRead;
  return SnapshotStatus::kOk;
}

SnapshotStatus write_phase_space(const std::string& path,
                                 const vlasov::PhaseSpace& f) {
  FilePtr fp(std::fopen(path.c_str(), "wb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  const std::uint32_t magic = kPhaseSpaceMagic, version = kVersion;
  const auto& d = f.dims();
  // Slot 7 records the stencil's ghost width; the payload has no ghosts.
  const std::int32_t dims[7] = {d.nx, d.ny, d.nz, d.nux, d.nuy, d.nuz,
                                vlasov::kStencilGhost};
  const auto& g = f.geom();
  const double geom[10] = {g.x0, g.y0, g.z0,  g.dx,  g.dy,
                           g.dz, g.umax, g.dux, g.duy, g.duz};
  if (!write_raw(fp.get(), &magic, 1) || !write_raw(fp.get(), &version, 1) ||
      !write_raw(fp.get(), dims, 7) || !write_raw(fp.get(), geom, 10))
    return SnapshotStatus::kWriteFailed;
  if (!write_raw(fp.get(), f.raw(), f.raw_size()))
    return SnapshotStatus::kWriteFailed;
  return SnapshotStatus::kOk;
}

SnapshotStatus read_phase_space(const std::string& path,
                                vlasov::PhaseSpace& f) {
  FilePtr fp(std::fopen(path.c_str(), "rb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  const SnapshotStatus prologue = read_prologue(fp.get(), kPhaseSpaceMagic);
  if (prologue != SnapshotStatus::kOk) return prologue;
  std::int32_t dims[7];
  double geom[10];
  if (!read_raw(fp.get(), dims, 7) || !read_raw(fp.get(), geom, 10))
    return SnapshotStatus::kShortRead;
  for (int i = 0; i < 6; ++i)
    if (dims[i] <= 0) return SnapshotStatus::kBadHeader;
  // The ghost width is a property of the stencil, not the problem size,
  // and allocates nothing; a large value is corruption.
  if (dims[6] < 0 || dims[6] > 16) return SnapshotStatus::kBadHeader;
  // Bound what PhaseSpace will allocate, with overflow-safe products.
  std::uint64_t interior = sizeof(float);
  for (int i = 0; i < 6; ++i)
    if (!mul_within_cap(interior, static_cast<std::uint64_t>(dims[i])))
      return SnapshotStatus::kBadHeader;
  const std::uint64_t header_bytes = 2 * sizeof(std::uint32_t) +
                                     7 * sizeof(std::int32_t) +
                                     10 * sizeof(double);
  const long size = file_size(fp.get());
  if (size >= 0 && static_cast<std::uint64_t>(size) < header_bytes + interior)
    return SnapshotStatus::kShortRead;
  vlasov::PhaseSpaceDims d;
  d.nx = dims[0];
  d.ny = dims[1];
  d.nz = dims[2];
  d.nux = dims[3];
  d.nuy = dims[4];
  d.nuz = dims[5];
  vlasov::PhaseSpaceGeometry g;
  g.x0 = geom[0];
  g.y0 = geom[1];
  g.z0 = geom[2];
  g.dx = geom[3];
  g.dy = geom[4];
  g.dz = geom[5];
  g.umax = geom[6];
  g.dux = geom[7];
  g.duy = geom[8];
  g.duz = geom[9];
  f = vlasov::PhaseSpace(d, g);
  if (!read_raw(fp.get(), f.raw(), f.raw_size()))
    return SnapshotStatus::kShortRead;
  return SnapshotStatus::kOk;
}

}  // namespace v6d::io
