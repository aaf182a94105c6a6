#include "io/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "vlasov/sl_mpp5.hpp"

namespace v6d::io {

namespace {

constexpr std::uint32_t kParticlesMagic = 0x76364e42;   // "v6NB"
constexpr std::uint32_t kPhaseSpaceMagic = 0x76365653;  // "v6VS"
constexpr std::uint32_t kVersion = 1;
// A phase-space header: magic, version, 7 int32 dims, 10 double geometry.
constexpr std::size_t kPhaseSpaceHeaderBytes = 116;

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

/// The particle reader's magic/version prologue.
SnapshotStatus read_prologue(std::FILE* fp, std::uint32_t expected_magic) {
  std::uint32_t magic = 0, version = 0;
  if (!read_raw(fp, &magic, 1)) return SnapshotStatus::kShortRead;
  if (magic != expected_magic) return SnapshotStatus::kBadMagic;
  if (!read_raw(fp, &version, 1)) return SnapshotStatus::kShortRead;
  if (version != kVersion) return SnapshotStatus::kVersionMismatch;
  return SnapshotStatus::kOk;
}

/// The header of f's phase-space encoding.  Dims slot 7 records the
/// stencil's ghost width; the blocks have no ghosts.
std::array<std::uint8_t, kPhaseSpaceHeaderBytes> phase_space_header(
    const vlasov::PhaseSpace& f) {
  const std::uint32_t prologue[2] = {kPhaseSpaceMagic, kVersion};
  const auto& d = f.dims();
  const std::int32_t dims[7] = {d.nx,  d.ny,  d.nz, d.nux,
                                d.nuy, d.nuz, vlasov::kStencilGhost};
  const auto& g = f.geom();
  const double geom[10] = {g.x0, g.y0, g.z0,  g.dx,  g.dy,
                           g.dz, g.umax, g.dux, g.duy, g.duz};
  std::array<std::uint8_t, kPhaseSpaceHeaderBytes> header;
  static_assert(sizeof(prologue) + sizeof(dims) + sizeof(geom) ==
                kPhaseSpaceHeaderBytes);
  std::memcpy(header.data(), prologue, sizeof(prologue));
  std::memcpy(header.data() + sizeof(prologue), dims, sizeof(dims));
  std::memcpy(header.data() + sizeof(prologue) + sizeof(dims), geom,
              sizeof(geom));
  return header;
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

std::vector<std::uint8_t> encode_phase_space(const vlasov::PhaseSpace& f) {
  const auto header = phase_space_header(f);
  std::vector<std::uint8_t> bytes(header.size() + f.raw_size() * sizeof(float));
  std::copy(header.begin(), header.end(), bytes.begin());
  std::copy_n(reinterpret_cast<const std::uint8_t*>(f.raw()),
              bytes.size() - header.size(), bytes.begin() + header.size());
  return bytes;
}

SnapshotStatus decode_phase_space(std::span<const std::uint8_t> bytes,
                                  vlasov::BrickView& brick) {
  std::size_t at = 0;
  // Copy out the next `n` bytes, or report that the encoding ends first.
  const auto take = [&](void* out, std::size_t n) {
    if (bytes.size() - at < n) return false;
    std::memcpy(out, bytes.data() + at, n);
    at += n;
    return true;
  };
  std::uint32_t magic = 0, version = 0;
  std::int32_t dims[7];
  double geom[10];
  if (!take(&magic, sizeof(magic))) return SnapshotStatus::kShortRead;
  if (magic != kPhaseSpaceMagic) return SnapshotStatus::kBadMagic;
  if (!take(&version, sizeof(version))) return SnapshotStatus::kShortRead;
  if (version != kVersion) return SnapshotStatus::kVersionMismatch;
  if (!take(dims, sizeof(dims)) || !take(geom, sizeof(geom)))
    return SnapshotStatus::kShortRead;
  // The ghost width is a property of the stencil, not the problem size,
  // and allocates nothing; a large value is corruption.
  if (dims[6] < 0 || dims[6] > 16) return SnapshotStatus::kBadHeader;
  std::uint64_t block_bytes = sizeof(float);
  for (int i = 0; i < 6; ++i)
    if (dims[i] <= 0 || !mul_within_cap(block_bytes, std::uint64_t(dims[i])))
      return SnapshotStatus::kBadHeader;
  if (bytes.size() - at != block_bytes)
    return bytes.size() - at < block_bytes ? SnapshotStatus::kShortRead
                                           : SnapshotStatus::kBadHeader;
  brick.dims = {dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]};
  brick.geom = {geom[0], geom[1], geom[2], geom[3], geom[4],
                geom[5], geom[6], geom[7], geom[8], geom[9]};
  brick.blocks = reinterpret_cast<const float*>(bytes.data() + at);
  return SnapshotStatus::kOk;
}

SnapshotStatus write_phase_space(const std::string& path,
                                 const vlasov::PhaseSpace& f) {
  FilePtr fp(std::fopen(path.c_str(), "wb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  const auto header = phase_space_header(f);
  if (!write_raw(fp.get(), header.data(), header.size()) ||
      !write_raw(fp.get(), f.raw(), f.raw_size()))
    return SnapshotStatus::kWriteFailed;
  return SnapshotStatus::kOk;
}

SnapshotStatus read_phase_space(const std::string& path,
                                std::vector<std::uint8_t>& bytes,
                                vlasov::BrickView& brick) {
  // The file's own length bounds the allocation, whatever its header says.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  FilePtr fp(ec ? nullptr : std::fopen(path.c_str(), "rb"));
  if (!fp) return SnapshotStatus::kOpenFailed;
  bytes.resize(size);
  if (size > 0 && !read_raw(fp.get(), bytes.data(), bytes.size()))
    return SnapshotStatus::kShortRead;
  return decode_phase_space(bytes, brick);
}

SnapshotStatus read_phase_space(const std::string& path,
                                vlasov::PhaseSpace& f) {
  std::vector<std::uint8_t> bytes;
  vlasov::BrickView brick;
  const SnapshotStatus status = read_phase_space(path, bytes, brick);
  if (status != SnapshotStatus::kOk) return status;
  f = vlasov::PhaseSpace(brick.dims, brick.geom);
  std::copy_n(brick.blocks, f.raw_size(), f.raw());
  return status;
}

}  // namespace v6d::io
