#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "io/pgm.hpp"
#include "io/snapshot.hpp"
#include "io/table_writer.hpp"
#include "vlasov/brick.hpp"

namespace {

using namespace v6d;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Snapshot, ParticlesRoundTrip) {
  nbody::Particles p(100);
  Xoshiro256 rng(44);
  p.mass = 3.25;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.next_double();
    p.y[i] = rng.next_double();
    p.z[i] = rng.next_double();
    p.ux[i] = rng.next_normal();
    p.uy[i] = rng.next_normal();
    p.uz[i] = rng.next_normal();
    p.id[i] = i * 7;
  }
  const std::string path = temp_path("v6d_particles_test.bin");
  ASSERT_EQ(io::write_particles(path, p), io::SnapshotStatus::kOk);
  nbody::Particles q;
  ASSERT_EQ(io::read_particles(path, q), io::SnapshotStatus::kOk);
  ASSERT_EQ(q.size(), p.size());
  EXPECT_DOUBLE_EQ(q.mass, p.mass);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_DOUBLE_EQ(q.x[i], p.x[i]);
    EXPECT_DOUBLE_EQ(q.ux[i], p.ux[i]);
    EXPECT_EQ(q.id[i], p.id[i]);
  }
  std::remove(path.c_str());
}

TEST(Snapshot, PhaseSpaceRoundTrip) {
  vlasov::PhaseSpaceDims d;
  d.nx = d.ny = d.nz = 3;
  d.nux = d.nuy = d.nuz = 4;
  vlasov::PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 2.0;
  g.umax = 5.0;
  g.dux = g.duy = g.duz = 2.5;
  vlasov::PhaseSpace f(d, g);
  Xoshiro256 rng(11);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = static_cast<float>(rng.next_double());
      }
  const std::string path = temp_path("v6d_ps_test.bin");
  ASSERT_EQ(io::write_phase_space(path, f), io::SnapshotStatus::kOk);
  vlasov::PhaseSpace h;
  ASSERT_EQ(io::read_phase_space(path, h), io::SnapshotStatus::kOk);
  EXPECT_EQ(h.dims().nx, 3);
  EXPECT_EQ(h.dims().nuz, 4);
  EXPECT_DOUBLE_EQ(h.geom().umax, 5.0);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* a = f.block(ix, iy, iz);
        const float* b = h.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          ASSERT_EQ(a[v], b[v]);
      }
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsWrongMagic) {
  const std::string path = temp_path("v6d_bad_magic.bin");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  const char junk[64] = "not a snapshot";
  std::fwrite(junk, 1, sizeof(junk), fp);
  std::fclose(fp);
  nbody::Particles p;
  EXPECT_EQ(io::read_particles(path, p), io::SnapshotStatus::kBadMagic);
  vlasov::PhaseSpace f;
  EXPECT_EQ(io::read_phase_space(path, f), io::SnapshotStatus::kBadMagic);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsOpenFailed) {
  nbody::Particles p;
  EXPECT_EQ(io::read_particles(temp_path("v6d_does_not_exist.bin"), p),
            io::SnapshotStatus::kOpenFailed);
}

TEST(Snapshot, TruncatedPayloadIsShortRead) {
  nbody::Particles p(64);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = p.y[i] = p.z[i] = 0.5;
    p.ux[i] = p.uy[i] = p.uz[i] = 0.0;
    p.id[i] = i;
  }
  const std::string path = temp_path("v6d_truncated.bin");
  ASSERT_EQ(io::write_particles(path, p), io::SnapshotStatus::kOk);
  // Chop the file mid-payload; the header still advertises 64 particles.
  ASSERT_EQ(std::filesystem::file_size(path) > 128u, true);
  std::filesystem::resize_file(path, 128);
  nbody::Particles q;
  EXPECT_EQ(io::read_particles(path, q), io::SnapshotStatus::kShortRead);
  std::remove(path.c_str());
}

TEST(Snapshot, FutureVersionIsVersionMismatch) {
  vlasov::PhaseSpaceDims d;
  d.nx = d.ny = d.nz = 2;
  d.nux = d.nuy = d.nuz = 2;
  vlasov::PhaseSpace f(d, vlasov::PhaseSpaceGeometry{});
  const std::string path = temp_path("v6d_future_version.bin");
  ASSERT_EQ(io::write_phase_space(path, f), io::SnapshotStatus::kOk);
  // Bump the on-disk version field (bytes 4..7) past the supported one.
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  const std::uint32_t future = io::snapshot_version() + 1;
  std::fseek(fp, 4, SEEK_SET);
  std::fwrite(&future, sizeof(future), 1, fp);
  std::fclose(fp);
  vlasov::PhaseSpace g;
  EXPECT_EQ(io::read_phase_space(path, g),
            io::SnapshotStatus::kVersionMismatch);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptDimsAreBadHeader) {
  vlasov::PhaseSpaceDims d;
  d.nx = d.ny = d.nz = 2;
  d.nux = d.nuy = d.nuz = 2;
  vlasov::PhaseSpace f(d, vlasov::PhaseSpaceGeometry{});
  const std::string path = temp_path("v6d_bad_dims.bin");
  ASSERT_EQ(io::write_phase_space(path, f), io::SnapshotStatus::kOk);
  // A negative dimension must be rejected before any allocation.
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  const std::int32_t negative = -4;
  std::fseek(fp, 8, SEEK_SET);  // first dim, after magic + version
  std::fwrite(&negative, sizeof(negative), 1, fp);
  std::fclose(fp);
  vlasov::PhaseSpace g;
  EXPECT_EQ(io::read_phase_space(path, g), io::SnapshotStatus::kBadHeader);
  std::remove(path.c_str());
}

// The phase-space decoder parses bytes that come from files and from TCP
// peers (gathered bricks).  Every truncation and every bit flip of the
// header must come back as a typed status; a flip that still decodes
// must describe blocks inside the buffer, and placing it must not crash.
// Each case decodes a buffer of exactly its own length, so the asan
// preset catches any read past it.
TEST(Snapshot, PhaseSpaceDecoderSurvivesTruncationsAndHeaderFlips) {
  vlasov::PhaseSpaceDims d;
  d.nx = 2;
  d.ny = 3;
  d.nz = 2;
  d.nux = d.nuy = d.nuz = 2;
  vlasov::PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 2.0;
  g.dux = g.duy = g.duz = 1.0;
  vlasov::PhaseSpace f(d, g);
  for (std::size_t i = 0; i < f.raw_size(); ++i)
    f.raw()[i] = static_cast<float>(i);
  const auto bytes = io::encode_phase_space(f);
  const std::size_t header = bytes.size() - f.raw_size() * sizeof(float);
  ASSERT_EQ(header, 116u);
  // A phase-space file holds exactly the encoding a gather message carries.
  const std::string path = temp_path("v6d_ps_encoding.bin");
  ASSERT_EQ(io::write_phase_space(path, f), io::SnapshotStatus::kOk);
  std::vector<std::uint8_t> file;
  vlasov::BrickView from_file;
  ASSERT_EQ(io::read_phase_space(path, file, from_file),
            io::SnapshotStatus::kOk);
  EXPECT_EQ(file, bytes);
  std::remove(path.c_str());
  vlasov::BrickView brick;
  ASSERT_EQ(io::decode_phase_space(bytes, brick), io::SnapshotStatus::kOk);
  EXPECT_EQ(brick.dims.ny, 3);
  EXPECT_EQ(std::memcmp(brick.blocks, f.raw(), f.raw_size() * sizeof(float)),
            0);

  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    EXPECT_EQ(io::decode_phase_space(prefix, brick),
              io::SnapshotStatus::kShortRead)
        << n << " bytes";
  }
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_EQ(io::decode_phase_space(longer, brick),
            io::SnapshotStatus::kBadHeader);

  const auto check = [&](const std::vector<std::uint8_t>& mutated,
                         std::size_t at) {
    const auto status = io::decode_phase_space(mutated, brick);
    if (at < 4) {
      EXPECT_EQ(status, io::SnapshotStatus::kBadMagic) << at;
    } else if (at < 8) {
      EXPECT_EQ(status, io::SnapshotStatus::kVersionMismatch) << at;
    }
    if (status != io::SnapshotStatus::kOk) {
      EXPECT_NE(std::string(io::to_string(status)), "unknown") << at;
      return;
    }
    EXPECT_EQ(brick.dims.total_interior() * sizeof(float),
              mutated.size() - header);
    EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(brick.blocks),
              mutated.data() + header);
    vlasov::PhaseSpace target(d, g);
    vlasov::BrickPlacement placement(target);
    std::string why;
    (void)placement.place(brick, &why);
  };
  for (std::size_t at = 0; at < header; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[at] ^= static_cast<std::uint8_t>(1u << bit);
      check(mutated, at);
    }
    for (const std::uint8_t value : {0x00, 0xff}) {
      auto mutated = bytes;
      if (mutated[at] == value) continue;
      mutated[at] = value;
      check(mutated, at);
    }
  }
}

TEST(Snapshot, StatusNamesAreStable) {
  EXPECT_STREQ(io::to_string(io::SnapshotStatus::kOk), "ok");
  EXPECT_STREQ(io::to_string(io::SnapshotStatus::kShortRead), "short-read");
  EXPECT_STREQ(io::to_string(io::SnapshotStatus::kVersionMismatch),
               "version-mismatch");
}

TEST(Pgm, WritesValidHeaderAndPayload) {
  diag::Map2D map;
  map.nx = 4;
  map.ny = 6;
  map.values.assign(24, 0.0);
  for (int i = 0; i < 24; ++i) map.values[static_cast<std::size_t>(i)] = i;
  const std::string path = temp_path("v6d_map.pgm");
  ASSERT_TRUE(io::write_pgm(path, map));
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(fp, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P5");
  int w = 0, h = 0, maxval = 0;
  ASSERT_EQ(std::fscanf(fp, "%d %d %d", &w, &h, &maxval), 3);
  EXPECT_EQ(w, 6);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxval, 255);
  std::fclose(fp);
  std::remove(path.c_str());
}

TEST(Pgm, CsvHasExpectedCells) {
  diag::Map2D map;
  map.nx = 2;
  map.ny = 2;
  map.values = {1.0, 2.0, 3.0, 4.0};
  const std::string path = temp_path("v6d_map.csv");
  ASSERT_TRUE(io::write_csv(path, map));
  std::FILE* fp = std::fopen(path.c_str(), "r");
  double a, b, c, d;
  ASSERT_EQ(std::fscanf(fp, "%lf,%lf %lf,%lf", &a, &b, &c, &d), 4);
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(d, 4.0);
  std::fclose(fp);
  std::remove(path.c_str());
}

TEST(TableWriter, FormatsAlignedColumns) {
  io::TableWriter table({"run", "nodes", "eff"});
  table.row({"S2", "288", "96.0%"});
  table.row({"H1024", "147456", "82.3%"});
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("run"), std::string::npos);
  EXPECT_NE(out.find("147456"), std::string::npos);
  EXPECT_NE(out.find("82.3%"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableWriter, NumberFormatting) {
  EXPECT_EQ(io::TableWriter::fmt_pct(0.823), "82.3%");
  EXPECT_EQ(io::TableWriter::fmt_pct(1.0, 0), "100%");
  const std::string s = io::TableWriter::fmt(1234.5678, 3);
  EXPECT_NE(s.find("1234"), std::string::npos);
}

}  // namespace
