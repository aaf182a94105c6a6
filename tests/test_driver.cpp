#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"

namespace {

using namespace v6d;

std::string temp_dir(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(path);
  return path.string();
}

/// The smoke-sized neutrino_box: a few adaptive steps, every species on.
driver::SimulationConfig tiny_config() {
  driver::SimulationConfig cfg;
  cfg.scenario = "neutrino_box";
  cfg.box = 100.0;
  cfg.m_nu_ev = 0.4;
  cfg.nx = 4;
  cfg.nu = 6;
  cfg.np = 8;
  cfg.a_final = 0.2;
  cfg.da_max = 0.03;
  cfg.seed = 9;
  cfg.checkpoint_dir.clear();
  return cfg;
}

void expect_bit_identical(const hybrid::HybridSolver& lhs,
                          const hybrid::HybridSolver& rhs) {
  const auto& f1 = lhs.neutrinos();
  const auto& f2 = rhs.neutrinos();
  ASSERT_EQ(f1.dims().nx, f2.dims().nx);
  const auto& d = f1.dims();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* a = f1.block(ix, iy, iz);
        const float* b = f2.block(ix, iy, iz);
        for (std::size_t v = 0; v < f1.block_size(); ++v)
          ASSERT_EQ(a[v], b[v]) << "f differs at cell (" << ix << "," << iy
                                << "," << iz << ") slot " << v;
      }

  const auto& p1 = lhs.cdm();
  const auto& p2 = rhs.cdm();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1.x[i], p2.x[i]) << "x differs at particle " << i;
    ASSERT_EQ(p1.y[i], p2.y[i]) << "y differs at particle " << i;
    ASSERT_EQ(p1.z[i], p2.z[i]) << "z differs at particle " << i;
    ASSERT_EQ(p1.ux[i], p2.ux[i]) << "ux differs at particle " << i;
    ASSERT_EQ(p1.uy[i], p2.uy[i]) << "uy differs at particle " << i;
    ASSERT_EQ(p1.uz[i], p2.uz[i]) << "uz differs at particle " << i;
    ASSERT_EQ(p1.id[i], p2.id[i]) << "id differs at particle " << i;
  }
}

TEST(SimulationConfig, KvRoundTripIsExact) {
  driver::SimulationConfig cfg;
  cfg.a_init = 1.0 / 11.0;  // not representable in short decimal
  cfg.a_final = 2.0 / 3.0;
  cfg.da_max = 0.1;
  cfg.seed = 0xdeadbeefcafeULL;
  cfg.enable_tree = false;
  cfg.checkpoint_dir = "some/dir";
  const auto kv = cfg.to_kv();
  const auto back = driver::SimulationConfig::from_kv(kv);
  EXPECT_EQ(back.a_init, cfg.a_init);
  EXPECT_EQ(back.a_final, cfg.a_final);
  EXPECT_EQ(back.da_max, cfg.da_max);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.enable_tree, cfg.enable_tree);
  EXPECT_EQ(back.checkpoint_dir, cfg.checkpoint_dir);
  EXPECT_EQ(back.scenario, cfg.scenario);
}

TEST(SimulationConfig, PrecedenceCliOverFileOverScenario) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "v6d_test.cfg").string();
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "scenario = cosmic_web\n"
        << "np = 12   ; trailing comment\n"
        << "a_final = 0.3\n";
  }
  Options options;  // as if from the command line
  options.set("np", "10");
  std::string error;
  ASSERT_TRUE(options.load_file(path, &error)) << error;
  const auto cfg = driver::make_config(options);
  EXPECT_EQ(cfg.scenario, "cosmic_web");
  EXPECT_EQ(cfg.np, 10);             // CLI beats file
  EXPECT_DOUBLE_EQ(cfg.a_final, 0.3);  // file beats scenario default
  EXPECT_DOUBLE_EQ(cfg.box, 150.0);  // scenario default survives
  EXPECT_EQ(cfg.m_nu_ev, 0.0);       // scenario default survives
  std::remove(path.c_str());
}

TEST(ScenarioRegistry, AllScenariosBuildAndStep) {
  for (const auto& scenario : driver::scenarios()) {
    Options overrides;
    overrides.set("nx", "4");
    overrides.set("nu", "6");
    overrides.set("checkpoint_dir", "");
    auto cfg = driver::make_config(overrides, scenario.name);
    if (cfg.np > 0) cfg.np = 8;  // keep particle-free scenarios that way
    cfg.a_final = cfg.a_init + 0.02;
    cfg.da_max = 0.02;
    driver::Driver d(cfg);
    const auto result = d.run();
    EXPECT_EQ(result.reason, driver::StopReason::kFinished)
        << scenario.name;
    EXPECT_GE(result.steps, 1) << scenario.name;
    EXPECT_GT(d.solver().total_mass(), 0.0) << scenario.name;
  }
}

TEST(ScenarioRegistry, UnknownScenarioThrows) {
  Options options;
  options.set("scenario", "warp_drive");
  EXPECT_THROW(driver::make_config(options), std::invalid_argument);
}

// The acceptance test: N steps straight through vs. checkpoint-at-k +
// resume must agree bit-for-bit in phase space and particle arrays.
TEST(Driver, CheckpointResumeIsBitIdentical) {
  const std::string dir = temp_dir("v6d_ckpt_determinism");

  auto cfg = tiny_config();
  driver::Driver continuous(cfg);
  const auto full = continuous.run();
  ASSERT_EQ(full.reason, driver::StopReason::kFinished);
  ASSERT_GE(full.total_steps, 4) << "test wants a multi-step run";

  auto cfg2 = tiny_config();
  cfg2.max_steps = 2;
  cfg2.checkpoint_dir = dir;
  driver::Driver interrupted(cfg2);
  const auto head = interrupted.run();
  ASSERT_EQ(head.reason, driver::StopReason::kMaxSteps);
  ASSERT_EQ(head.checkpoint, dir);
  // One checkpoint writer at every rank count: a serial run commits the
  // single shard of its world-1 solver, not a global payload.
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      "phase_space.2.r0.bin"));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "phase_space.2.bin"));

  Options overrides;
  overrides.set("max_steps", "0");
  driver::Driver resumed = driver::Driver::resume(dir, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  const auto tail = resumed.run();
  ASSERT_EQ(tail.reason, driver::StopReason::kFinished);

  EXPECT_EQ(resumed.step_count(), full.total_steps);
  EXPECT_EQ(resumed.scale_factor(), continuous.scale_factor());
  expect_bit_identical(continuous.solver(), resumed.solver());
  std::filesystem::remove_all(dir);
}

// Serial runs wrote a global phase_space.<step>.bin payload and no shards
// before they became world-1 runs of the rank loop.  Such a checkpoint,
// written here through the free driver::write_checkpoint from a ranks = 1
// run's state, must still resume bit-identically.
TEST(Driver, GlobalPayloadCheckpointStillResumes) {
  const std::string sharded = temp_dir("v6d_ckpt_sharded");
  const std::string global = temp_dir("v6d_ckpt_global_payload");

  auto cfg = tiny_config();
  driver::Driver continuous(cfg);
  continuous.run();

  auto cfg2 = tiny_config();
  cfg2.max_steps = 2;
  cfg2.checkpoint_dir = sharded;
  driver::Driver interrupted(cfg2);
  ASSERT_EQ(interrupted.run().reason, driver::StopReason::kMaxSteps);

  // The run's own meta, with the global payload in place of its shard.
  driver::Checkpoint meta;
  ASSERT_EQ(driver::read_checkpoint_meta(sharded, meta),
            io::SnapshotStatus::kOk);
  meta.shard_files.clear();
  meta.payload_bytes.clear();
  meta.has_phase_space = true;
  const auto& solver = interrupted.solver();
  const auto forces = solver.export_step_forces();
  ASSERT_TRUE(meta.has_forces && forces.fresh);
  ASSERT_EQ(driver::write_checkpoint(global, meta, &solver.neutrinos(),
                                     &solver.cdm(), &forces),
            io::SnapshotStatus::kOk);
  ASSERT_TRUE(std::filesystem::exists(std::filesystem::path(global) /
                                      "phase_space.2.bin"));
  ASSERT_FALSE(std::filesystem::exists(std::filesystem::path(global) /
                                       "phase_space.2.r0.bin"));

  Options overrides;
  overrides.set("max_steps", "0");
  overrides.set("checkpoint_dir", "");
  driver::Driver resumed = driver::Driver::resume(global, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  ASSERT_EQ(resumed.run().reason, driver::StopReason::kFinished);

  EXPECT_EQ(resumed.step_count(), continuous.step_count());
  EXPECT_EQ(resumed.scale_factor(), continuous.scale_factor());
  expect_bit_identical(continuous.solver(), resumed.solver());
  std::filesystem::remove_all(sharded);
  std::filesystem::remove_all(global);
}

/// The phase_seconds keys of every row of a telemetry stream.
std::vector<std::set<std::string>> telemetry_phase_keys(
    const std::string& path) {
  constexpr const char* kField = "\"phase_seconds\":{";
  std::vector<std::set<std::string>> rows;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const auto open = line.find(kField);
    if (open == std::string::npos) {
      ADD_FAILURE() << "row without phase_seconds: " << line;
      continue;
    }
    const auto begin = open + std::strlen(kField);
    // Entries are "bucket":seconds; bucket names hold no ',' or '"'.
    std::istringstream entries(
        line.substr(begin, line.find('}', begin) - begin));
    std::set<std::string> keys;
    for (std::string entry; std::getline(entries, entry, ',');)
      keys.insert(entry.substr(1, entry.find('"', 1) - 1));
    rows.push_back(keys);
  }
  return rows;
}

// One loop writes every heartbeat, so a serial and a 2-rank run report the
// same phase buckets, in the documented form: driver buckets bare, solver
// buckets under "solver:".
TEST(Driver, TelemetryRowsHaveOneFormAtEveryRankCount) {
  std::vector<std::set<std::string>> rows;
  for (const int ranks : {1, 2}) {
    auto cfg = tiny_config();
    cfg.nx = 8;  // two bricks of 4 >= the ghost width
    cfg.max_steps = 2;
    cfg.ranks = ranks;
    cfg.telemetry = temp_dir("v6d_telemetry_ranks" + std::to_string(ranks));
    driver::Driver d(cfg);
    d.run();
    const auto got = telemetry_phase_keys(cfg.telemetry);
    EXPECT_EQ(got.size(), 2u) << ranks << " ranks";
    rows.insert(rows.end(), got.begin(), got.end());
    std::filesystem::remove(cfg.telemetry);
  }
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(rows[0].count("step"));
  EXPECT_TRUE(rows[0].count("solver:vlasov"));
  for (const auto& keys : rows) EXPECT_EQ(keys, rows[0]);
}

// Writing a periodic checkpoint must not perturb the run itself.
TEST(Driver, PeriodicCheckpointDoesNotPerturbRun) {
  const std::string dir = temp_dir("v6d_ckpt_passive");

  auto cfg = tiny_config();
  driver::Driver plain(cfg);
  plain.run();

  auto cfg2 = tiny_config();
  cfg2.checkpoint_every = 1;
  cfg2.checkpoint_dir = dir;
  driver::Driver checkpointing(cfg2);
  checkpointing.run();

  expect_bit_identical(plain.solver(), checkpointing.solver());
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeRejectsPhysicsShapeChange) {
  const std::string dir = temp_dir("v6d_ckpt_mismatch");
  auto cfg = tiny_config();
  cfg.max_steps = 1;
  cfg.checkpoint_dir = dir;
  driver::Driver d(cfg);
  ASSERT_EQ(d.run().reason, driver::StopReason::kMaxSteps);

  Options overrides;
  overrides.set("nx", "6");  // incompatible with the stored payload
  EXPECT_THROW(driver::Driver::resume(dir, overrides), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeOfMissingCheckpointThrows) {
  EXPECT_THROW(driver::Driver::resume(temp_dir("v6d_no_such_ckpt")),
               std::runtime_error);
}

TEST(Checkpoint, MetaRoundTripsRngAndScaleFactor) {
  const std::string dir = temp_dir("v6d_ckpt_meta");
  std::filesystem::create_directories(dir);

  Xoshiro256 rng(123);
  rng.next_normal();  // populate the Box-Muller cache
  driver::Checkpoint meta;
  meta.config = tiny_config();
  meta.a = 1.0 / 7.0;
  meta.step = 42;
  meta.rng = rng.state();
  ASSERT_EQ(driver::write_checkpoint(dir, meta, nullptr, nullptr, nullptr),
            io::SnapshotStatus::kOk);

  driver::Checkpoint back;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, back),
            io::SnapshotStatus::kOk);
  EXPECT_EQ(back.a, meta.a);
  EXPECT_EQ(back.step, 42);
  EXPECT_EQ(back.config.seed, meta.config.seed);
  EXPECT_EQ(back.config.nx, meta.config.nx);

  // The restored stream must continue exactly where the original does.
  Xoshiro256 restored(1);
  restored.set_state(back.rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.next_normal(), rng.next_normal());
    EXPECT_EQ(restored.next_u64(), rng.next_u64());
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptMetaReportsDistinctErrors) {
  const std::string dir = temp_dir("v6d_ckpt_corrupt");
  std::filesystem::create_directories(dir);
  const auto meta_path = std::filesystem::path(dir) / "meta";

  driver::Checkpoint meta;
  {
    std::ofstream out(meta_path);
    out << "something-else 1\n";
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kBadMagic);
  {
    std::ofstream out(meta_path);
    out << "v6d-checkpoint 999\n";
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kVersionMismatch);
  {
    std::ofstream out(meta_path);
    out << "v6d-checkpoint " << driver::checkpoint_version() << "\n"
        << "a=0.5\n";  // remaining required fields missing
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kShortRead);
  std::filesystem::remove_all(dir);
}

}  // namespace
