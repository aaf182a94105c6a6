#include "driver/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <system_error>
#include <type_traits>

#include "vlasov/brick.hpp"

namespace v6d::driver {

namespace {

// Version 2 added the per-rank shard list; a version-1 reader would
// silently ignore the shard fields and resume a neutrino run from a
// zeroed phase space, so the bump makes it fail with kVersionMismatch
// instead.
constexpr unsigned kVersion = 2;
constexpr const char* kMagicToken = "v6d-checkpoint";
constexpr const char* kMetaName = "meta";
constexpr std::uint32_t kForcesMagic = 0x76364643;  // "v6FC"

namespace fs = std::filesystem;

std::string join(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

void set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
}

struct FileCloser {
  void operator()(std::FILE* fp) const {
    if (fp) std::fclose(fp);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool fsync_fd_path(const char* path, int open_flags) {
  const int fd = ::open(path, open_flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Make the directory's own entries (renames, creations) durable.
bool fsync_dir(const std::string& dir) {
  return fsync_fd_path(dir.c_str(), O_RDONLY | O_DIRECTORY);
}

/// Write the file `name` of `dir` durably: `writer` fills `<name>.tmp`,
/// whose bytes reach stable storage before the rename publishes the name,
/// so a crash can never commit a meta that references a hole, and a
/// same-step rewrite is atomic too.  The one writer of every payload and
/// of the meta itself; on failure *error names the file and the OS cause.
template <class Writer>
io::SnapshotStatus write_durable(const std::string& dir,
                                 const std::string& name, Writer&& writer,
                                 std::string* error) {
  const std::string path = join(dir, name);
  const std::string tmp = path + ".tmp";
  errno = 0;
  auto status = writer(tmp);
  if (status == io::SnapshotStatus::kOk && !fsync_file(tmp))
    status = io::SnapshotStatus::kWriteFailed;
  if (status != io::SnapshotStatus::kOk) {
    std::string why = tmp;
    if (errno)
      why += ": " + std::error_code(errno, std::system_category()).message();
    set_error(error, why);
    return status;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    set_error(error, path + ": " + ec.message());
    return io::SnapshotStatus::kWriteFailed;
  }
  return io::SnapshotStatus::kOk;
}

/// Every payload file `meta` references: its shards, then the particles
/// and the force cache when flagged.
std::vector<std::string> referenced_payloads(const Checkpoint& meta) {
  std::vector<std::string> names = meta.shard_files;
  if (meta.has_particles) names.push_back(meta.particles_file);
  if (meta.has_forces) names.push_back(meta.forces_file);
  return names;
}

/// Best-effort sweep of payload files the committed meta does not
/// reference (superseded steps, ranks of an older topology).
void sweep_unreferenced_payloads(const std::string& dir,
                                 const Checkpoint& meta) {
  const auto live = referenced_payloads(meta);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    const bool is_payload = name.rfind("phase_space.", 0) == 0 ||
                            name.rfind("particles.", 0) == 0 ||
                            name.rfind("forces.", 0) == 0;
    if (is_payload && std::find(live.begin(), live.end(), name) == live.end())
      fs::remove(entry.path(), ec);
  }
}

/// Parse all of `text` as a T (integers in `base`): false when it is
/// empty, out of range, or anything follows the number.
template <class T>
bool parse_number(const std::string& text, T& value, int base = 10) {
  const char* end = text.data() + text.size();
  std::from_chars_result parsed;
  if constexpr (std::is_floating_point_v<T>)
    parsed = std::from_chars(text.data(), end, value);
  else
    parsed = std::from_chars(text.data(), end, value, base);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

// fwrite/fread declare their buffer nonnull; an empty std::vector's
// data() may be nullptr, so a zero-count transfer must short-circuit
// before the call (UBSan: "null pointer passed as argument 1").
template <class T>
bool write_raw(std::FILE* fp, const T* data, std::size_t count) {
  if (count == 0) return true;
  return std::fwrite(data, sizeof(T), count, fp) == count;
}
template <class T>
bool read_raw(std::FILE* fp, T* data, std::size_t count) {
  if (count == 0) return true;
  return std::fread(data, sizeof(T), count, fp) == count;
}

io::SnapshotStatus write_step_forces(
    const std::string& path, const hybrid::HybridSolver::StepForces& sf) {
  FilePtr fp(std::fopen(path.c_str(), "wb"));
  if (!fp) return io::SnapshotStatus::kOpenFailed;
  const std::uint32_t magic = kForcesMagic, version = kVersion;
  const std::uint32_t fresh = sf.fresh ? 1 : 0;
  const std::int32_t dims[4] = {sf.nu_ax.nx(), sf.nu_ax.ny(), sf.nu_ax.nz(),
                                sf.nu_ax.ghost()};
  const std::uint64_t n = sf.ax.size();
  if (!write_raw(fp.get(), &magic, 1) || !write_raw(fp.get(), &version, 1) ||
      !write_raw(fp.get(), &fresh, 1) || !write_raw(fp.get(), dims, 4) ||
      !write_raw(fp.get(), &n, 1))
    return io::SnapshotStatus::kWriteFailed;
  for (const auto* grid : {&sf.nu_ax, &sf.nu_ay, &sf.nu_az})
    if (!write_raw(fp.get(), grid->raw(), grid->raw_size()))
      return io::SnapshotStatus::kWriteFailed;
  for (const auto* v : {&sf.ax, &sf.ay, &sf.az})
    if (!write_raw(fp.get(), v->data(), v->size()))
      return io::SnapshotStatus::kWriteFailed;
  return io::SnapshotStatus::kOk;
}

io::SnapshotStatus read_step_forces(const std::string& path,
                                    hybrid::HybridSolver::StepForces& sf) {
  FilePtr fp(std::fopen(path.c_str(), "rb"));
  if (!fp) return io::SnapshotStatus::kOpenFailed;
  std::uint32_t magic = 0, version = 0, fresh = 0;
  std::int32_t dims[4];
  std::uint64_t n = 0;
  if (!read_raw(fp.get(), &magic, 1)) return io::SnapshotStatus::kShortRead;
  if (magic != kForcesMagic) return io::SnapshotStatus::kBadMagic;
  if (!read_raw(fp.get(), &version, 1)) return io::SnapshotStatus::kShortRead;
  if (version != kVersion) return io::SnapshotStatus::kVersionMismatch;
  if (!read_raw(fp.get(), &fresh, 1) || !read_raw(fp.get(), dims, 4) ||
      !read_raw(fp.get(), &n, 1))
    return io::SnapshotStatus::kShortRead;
  // Validate against corruption before allocating: bounded ghost count,
  // overflow-safe grid volume, and the advertised sizes vs the file size.
  constexpr std::uint64_t kMaxBytes = 1ULL << 40;
  if (dims[0] < 0 || dims[1] < 0 || dims[2] < 0 || dims[3] < 0 ||
      dims[3] > 16 || n > kMaxBytes / (3 * sizeof(double)))
    return io::SnapshotStatus::kBadHeader;
  std::uint64_t grid_bytes = sizeof(double);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t extent =
        static_cast<std::uint64_t>(dims[i]) + 2 * dims[3];
    if (extent == 0) {
      grid_bytes = 0;
      break;
    }
    if (grid_bytes > kMaxBytes / extent)
      return io::SnapshotStatus::kBadHeader;
    grid_bytes *= extent;
  }
  const std::uint64_t header_bytes =
      3 * sizeof(std::uint32_t) + 4 * sizeof(std::int32_t) +
      sizeof(std::uint64_t);
  const std::uint64_t payload_bytes =
      3 * grid_bytes + 3 * n * sizeof(double);
  const long pos = std::ftell(fp.get());
  if (pos >= 0 && std::fseek(fp.get(), 0, SEEK_END) == 0) {
    const long size = std::ftell(fp.get());
    if (std::fseek(fp.get(), pos, SEEK_SET) != 0)
      return io::SnapshotStatus::kShortRead;
    if (size >= 0 &&
        static_cast<std::uint64_t>(size) < header_bytes + payload_bytes)
      return io::SnapshotStatus::kShortRead;
  }
  sf.fresh = fresh != 0;
  sf.nu_ax = mesh::Grid3D<double>(dims[0], dims[1], dims[2], dims[3]);
  sf.nu_ay = mesh::Grid3D<double>(dims[0], dims[1], dims[2], dims[3]);
  sf.nu_az = mesh::Grid3D<double>(dims[0], dims[1], dims[2], dims[3]);
  sf.ax.resize(static_cast<std::size_t>(n));
  sf.ay.resize(static_cast<std::size_t>(n));
  sf.az.resize(static_cast<std::size_t>(n));
  for (auto* grid : {&sf.nu_ax, &sf.nu_ay, &sf.nu_az})
    if (!read_raw(fp.get(), grid->raw(), grid->raw_size()))
      return io::SnapshotStatus::kShortRead;
  for (auto* v : {&sf.ax, &sf.ay, &sf.az})
    if (!read_raw(fp.get(), v->data(), v->size()))
      return io::SnapshotStatus::kShortRead;
  return io::SnapshotStatus::kOk;
}

/// The meta's text: the version line, then key=value lines for the run's
/// numbers, the payload names and sizes, and the config echo.
io::SnapshotStatus write_meta(const std::string& path,
                              const Checkpoint& meta) {
  std::ofstream out(path);
  if (!out) return io::SnapshotStatus::kOpenFailed;
  char buf[64];
  out << kMagicToken << " " << kVersion << "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", meta.a);
  out << "a=" << buf << "\n";
  out << "step=" << meta.step << "\n";
  for (int i = 0; i < 4; ++i) {
    std::snprintf(buf, sizeof(buf), "%" PRIx64, meta.rng.s[i]);
    out << "rng.s" << i << "=" << buf << "\n";
  }
  out << "rng.cached=" << (meta.rng.have_cached_normal ? 1 : 0) << "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", meta.rng.cached_normal);
  out << "rng.normal=" << buf << "\n";
  out << "particles_file=" << meta.particles_file << "\n";
  out << "forces_file=" << meta.forces_file << "\n";
  out << "phase_space_shards=" << meta.shard_files.size() << "\n";
  for (std::size_t r = 0; r < meta.shard_files.size(); ++r)
    out << "shard" << r << "=" << meta.shard_files[r] << "\n";
  for (const auto& [name, bytes] : meta.payload_bytes)
    out << "bytes." << name << "=" << bytes << "\n";
  for (const auto& [key, value] : meta.config.to_kv())
    out << "cfg." << key << "=" << value << "\n";
  out.flush();
  return out ? io::SnapshotStatus::kOk : io::SnapshotStatus::kWriteFailed;
}

/// Place the shards `meta` lists into the global phase space `f` by each
/// shard's geometry origin, whatever rank count wrote them.  The solver
/// was rebuilt with an empty phase space, so the placement must tile it
/// exactly: a misfit, an overlap or a hole would resume from zeroed or
/// overwritten bricks.
io::SnapshotStatus read_phase_space_shards(const std::string& dir,
                                           const Checkpoint& meta,
                                           vlasov::PhaseSpace& f,
                                           std::string* error) {
  vlasov::BrickPlacement placement(f);
  std::string why;
  for (const auto& name : meta.shard_files) {
    const std::string path = join(dir, name);
    std::vector<std::uint8_t> bytes;
    vlasov::BrickView shard;
    const auto status = io::read_phase_space(path, bytes, shard);
    if (status != io::SnapshotStatus::kOk) {
      set_error(error, path);
      return status;
    }
    if (!placement.place(shard, &why)) {
      set_error(error, path + ": shard " + why);
      return io::SnapshotStatus::kBadHeader;
    }
  }
  if (!placement.complete(&why)) {
    set_error(error, "checkpoint shards " + why);
    return io::SnapshotStatus::kBadHeader;
  }
  return io::SnapshotStatus::kOk;
}

}  // namespace

bool fsync_file(const std::string& path) {
  return fsync_fd_path(path.c_str(), O_RDONLY);
}

unsigned checkpoint_version() { return kVersion; }

std::string shard_file_name(std::int64_t step, int rank) {
  return "phase_space." + std::to_string(step) + ".r" + std::to_string(rank) +
         ".bin";
}

io::SnapshotStatus write_phase_space_shard(const std::string& dir,
                                           std::int64_t step, int rank,
                                           const vlasov::PhaseSpace& brick,
                                           std::string* error) {
  return write_durable(
      dir, shard_file_name(step, rank),
      [&](const std::string& tmp) { return io::write_phase_space(tmp, brick); },
      error);
}

io::SnapshotStatus write_checkpoint(
    const std::string& dir, const Checkpoint& meta_in,
    const nbody::Particles* cdm,
    const hybrid::HybridSolver::StepForces* forces, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    set_error(error,
              "cannot create checkpoint directory " + dir + ": " + ec.message());
    return io::SnapshotStatus::kOpenFailed;
  }

  // Step-tagged payload names: a new checkpoint never touches the files
  // the current meta references, so the old checkpoint stays valid until
  // the meta rename below commits the new one.
  Checkpoint meta = meta_in;
  const std::string tag = std::to_string(meta.step);
  if (meta.has_particles) {
    if (!cdm) {
      set_error(error, "particle payload flagged but not supplied");
      return io::SnapshotStatus::kWriteFailed;
    }
    meta.particles_file = "particles." + tag + ".bin";
    const auto status = write_durable(
        dir, meta.particles_file,
        [&](const std::string& tmp) { return io::write_particles(tmp, *cdm); },
        error);
    if (status != io::SnapshotStatus::kOk) return status;
  }
  if (meta.has_forces) {
    if (!forces) {
      set_error(error, "force-cache payload flagged but not supplied");
      return io::SnapshotStatus::kWriteFailed;
    }
    meta.forces_file = "forces." + tag + ".bin";
    const auto status = write_durable(
        dir, meta.forces_file,
        [&](const std::string& tmp) { return write_step_forces(tmp, *forces); },
        error);
    if (status != io::SnapshotStatus::kOk) return status;
  }

  // Record every payload's size — the shards were written (and fsynced)
  // by their owning ranks before the commit barrier — so resume can tell
  // a complete checkpoint from a torn one.
  for (const auto& name : referenced_payloads(meta)) {
    const auto size = fs::file_size(join(dir, name), ec);
    if (ec) {
      set_error(error, join(dir, name) + ": payload missing at commit");
      return io::SnapshotStatus::kOpenFailed;
    }
    meta.payload_bytes[name] = static_cast<std::uint64_t>(size);
  }

  // Payload renames must be durable before the meta that references them
  // commits — fsyncing the directory orders the two on disk.
  if (!fsync_dir(dir)) {
    set_error(error, dir + ": directory fsync failed");
    return io::SnapshotStatus::kWriteFailed;
  }
  const auto status = write_durable(
      dir, kMetaName,
      [&](const std::string& tmp) { return write_meta(tmp, meta); }, error);
  if (status != io::SnapshotStatus::kOk) return status;
  // And make the commit itself durable.
  if (!fsync_dir(dir)) {
    set_error(error, dir + ": directory fsync failed");
    return io::SnapshotStatus::kWriteFailed;
  }

  // Garbage-collect payloads superseded by the meta that just landed
  // (best-effort; leftovers are harmless).
  sweep_unreferenced_payloads(dir, meta);
  return io::SnapshotStatus::kOk;
}

io::SnapshotStatus read_checkpoint_meta(const std::string& dir,
                                        Checkpoint& meta,
                                        std::string* error) {
  const std::string meta_path = join(dir, kMetaName);
  std::ifstream in(meta_path);
  if (!in) {
    set_error(error, meta_path);
    return io::SnapshotStatus::kOpenFailed;
  }
  std::string magic;
  unsigned version = 0;
  if (!(in >> magic)) {
    set_error(error, meta_path + ": empty meta");
    return io::SnapshotStatus::kShortRead;
  }
  if (magic != kMagicToken) {
    set_error(error, meta_path + ": not a v6d checkpoint");
    return io::SnapshotStatus::kBadMagic;
  }
  if (!(in >> version)) {
    set_error(error, meta_path + ": missing version");
    return io::SnapshotStatus::kShortRead;
  }
  if (version != kVersion) {
    set_error(error, meta_path + ": format version " +
                         std::to_string(version) + ", this build reads " +
                         std::to_string(kVersion));
    return io::SnapshotStatus::kVersionMismatch;
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  std::map<std::string, std::string> fields, cfg_kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      set_error(error, meta_path + ": malformed line '" + line + "'");
      return io::SnapshotStatus::kBadHeader;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key.rfind("cfg.", 0) == 0)
      cfg_kv[key.substr(4)] = value;
    else
      fields[key] = value;
  }

  // Serial runs once wrote the whole phase space as one global payload;
  // this build restores per-rank shards only.
  if (!fields["phase_space_file"].empty()) {
    set_error(error, meta_path +
                         ": field 'phase_space_file' names a global "
                         "phase-space payload; only per-rank shards are read");
    return io::SnapshotStatus::kVersionMismatch;
  }
  for (const char* required :
       {"a", "step", "rng.s0", "rng.s1", "rng.s2", "rng.s3", "rng.cached",
        "rng.normal", "particles_file", "forces_file",
        "phase_space_shards"}) {
    if (!fields.count(required)) {
      set_error(error,
                meta_path + ": missing field '" + std::string(required) + "'");
      return io::SnapshotStatus::kShortRead;
    }
  }

  const auto bad_value = [&](const std::string& key) {
    set_error(error, meta_path + ": bad value '" + fields[key] +
                         "' in field '" + key + "'");
    return io::SnapshotStatus::kBadHeader;
  };
  if (!parse_number(fields["a"], meta.a) || !std::isfinite(meta.a) ||
      meta.a <= 0.0)
    return bad_value("a");
  if (!parse_number(fields["step"], meta.step) || meta.step < 0)
    return bad_value("step");
  for (int i = 0; i < 4; ++i) {
    const std::string key = "rng.s" + std::to_string(i);
    if (!parse_number(fields[key], meta.rng.s[i], 16)) return bad_value(key);
  }
  int cached = 0;
  if (!parse_number(fields["rng.cached"], cached) || cached < 0 || cached > 1)
    return bad_value("rng.cached");
  meta.rng.have_cached_normal = cached == 1;
  if (!parse_number(fields["rng.normal"], meta.rng.cached_normal) ||
      !std::isfinite(meta.rng.cached_normal))
    return bad_value("rng.normal");
  long shards = 0;
  if (!parse_number(fields["phase_space_shards"], shards) || shards < 0 ||
      shards > 1 << 20)
    return bad_value("phase_space_shards");

  meta.particles_file = fields["particles_file"];
  meta.forces_file = fields["forces_file"];
  meta.has_particles = !meta.particles_file.empty();
  meta.has_forces = !meta.forces_file.empty();
  meta.shard_files.clear();
  for (long r = 0; r < shards; ++r) {
    const std::string key = "shard" + std::to_string(r);
    if (!fields.count(key)) {
      set_error(error, meta_path + ": missing field '" + key + "'");
      return io::SnapshotStatus::kShortRead;
    }
    meta.shard_files.push_back(fields[key]);
  }
  meta.payload_bytes.clear();
  for (const auto& [key, value] : fields)
    if (key.rfind("bytes.", 0) == 0 &&
        !parse_number(value, meta.payload_bytes[key.substr(6)]))
      return bad_value(key);
  for (const auto& name : referenced_payloads(meta)) {
    // Payload names must be plain file names inside the checkpoint
    // directory (no path traversal).
    if (name.find('/') != std::string::npos ||
        name.find("..") != std::string::npos) {
      set_error(error, meta_path + ": payload name '" + name +
                           "' escapes the directory");
      return io::SnapshotStatus::kBadHeader;
    }
    if (!meta.payload_bytes.count(name)) {
      set_error(error, meta_path + ": missing field 'bytes." + name + "'");
      return io::SnapshotStatus::kShortRead;
    }
  }
  meta.config = SimulationConfig::from_kv(cfg_kv);
  return io::SnapshotStatus::kOk;
}

io::SnapshotStatus validate_checkpoint_payloads(const std::string& dir,
                                                const Checkpoint& meta,
                                                std::string* error) {
  for (const auto& name : referenced_payloads(meta)) {
    const std::string path = join(dir, name);
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec) {
      set_error(error, "torn checkpoint: missing payload " + path);
      return io::SnapshotStatus::kOpenFailed;
    }
    const auto recorded = meta.payload_bytes.find(name);
    if (recorded == meta.payload_bytes.end() ||
        static_cast<std::uint64_t>(size) != recorded->second) {
      set_error(error,
                "torn checkpoint: " + path + " is " + std::to_string(size) +
                    " bytes, meta recorded " +
                    (recorded == meta.payload_bytes.end()
                         ? std::string("no size")
                         : std::to_string(recorded->second)));
      return io::SnapshotStatus::kShortRead;
    }
  }
  return io::SnapshotStatus::kOk;
}

void gc_checkpoint_leftovers(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return;
  // In-flight tmp files are debris of a write that never committed.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
  Checkpoint meta;
  const std::string meta_path = join(dir, kMetaName);
  const bool have_meta = fs::exists(meta_path, ec);
  if (!have_meta) return;
  if (read_checkpoint_meta(dir, meta) == io::SnapshotStatus::kOk &&
      validate_checkpoint_payloads(dir, meta) == io::SnapshotStatus::kOk) {
    // Healthy checkpoint: only shed what it does not reference.
    sweep_unreferenced_payloads(dir, meta);
    return;
  }
  // The committed meta itself is unreadable or references torn payloads:
  // nothing here can be resumed from, so clear the directory and let the
  // next launch start fresh.
  fs::remove(meta_path, ec);
  sweep_unreferenced_payloads(dir, Checkpoint{});
}

io::SnapshotStatus read_checkpoint_payload(
    const std::string& dir, const Checkpoint& meta, vlasov::PhaseSpace& f,
    nbody::Particles& cdm, hybrid::HybridSolver::StepForces& forces,
    std::string* error) {
  auto status = read_phase_space_shards(dir, meta, f, error);
  if (status != io::SnapshotStatus::kOk) return status;
  if (meta.has_particles) {
    const std::string path = join(dir, meta.particles_file);
    status = io::read_particles(path, cdm);
    if (status != io::SnapshotStatus::kOk) {
      set_error(error, path);
      return status;
    }
  }
  if (meta.has_forces) {
    const std::string path = join(dir, meta.forces_file);
    status = read_step_forces(path, forces);
    if (status != io::SnapshotStatus::kOk) {
      set_error(error, path);
      return status;
    }
  }
  return io::SnapshotStatus::kOk;
}

}  // namespace v6d::driver
