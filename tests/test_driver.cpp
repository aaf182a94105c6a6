#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"
#include "temp_paths.hpp"

namespace {

using namespace v6d;

std::string temp_dir(const std::string& name) {
  const auto path = temp_paths::process_temp_path(name);
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

/// A two-shard checkpoint: vlasov_only nx=8 nu=6 at ranks=2, stopped after
/// one step (shards phase_space.1.r0.bin and phase_space.1.r1.bin).
std::string two_shard_checkpoint(const std::string& name) {
  const std::string dir = temp_dir(name);
  Options options;
  options.set("nx", "8");
  options.set("nu", "6");
  options.set("ranks", "2");
  options.set("max_steps", "1");
  options.set("checkpoint_dir", dir);
  driver::Driver d(driver::make_config(options, "vlasov_only"));
  EXPECT_EQ(d.run().reason, driver::StopReason::kMaxSteps);
  return dir;
}

/// Set field `key` of the meta in `dir` to `value` (appending the line
/// when the meta has none), or drop the field when `value` is nullopt.
void set_meta_field(const std::string& dir, const std::string& key,
                    const std::optional<std::string>& value) {
  const auto path = std::filesystem::path(dir) / "meta";
  std::string text;
  bool found = false;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(key + "=", 0) == 0) {
        found = true;
        if (!value) continue;
        line = key + "=" + *value;
      }
      text += line + "\n";
    }
  }
  if (!found && value) text += key + "=" + *value + "\n";
  std::ofstream(path) << text;
}

/// Driver::resume of `dir` must throw with `needle` in its message.
void expect_resume_refused(const std::string& dir, const std::string& needle,
                           const Options& overrides = Options()) {
  try {
    (void)driver::Driver::resume(dir, overrides);
    ADD_FAILURE() << "resume of " << dir << " did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
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
      temp_paths::process_temp_path("v6d_test.cfg").string();
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

// A typed key's value parses in full wherever it comes from: the command
// line, a config file or a V6D_* variable.  Read as a numeric prefix or
// the default, these would run da_max 0, nx 8, max_steps 2 or seed
// 2^64 - 1; each throws naming the key and the value instead.
TEST(SimulationConfig, TypedKeysParseInFull) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"da_max", "0.0O2"},   {"nx", "eight"},     {"max_steps", "2e3"},
      {"seed", "-1"},        {"overlap", "maybe"}, {"ranks", "9999999999"},
      {"enable_tree", "2"}};
  const std::string path =
      temp_paths::process_temp_path("v6d_strict.cfg").string();
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key + "=" + value);
    const auto expect_refused = [&](const Options& options) {
      try {
        (void)driver::make_config(options, "vlasov_only");
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
      }
    };
    Options cli;
    cli.set(key, value);
    expect_refused(cli);

    std::ofstream(path) << key << " = " << value << "\n";
    Options file;
    std::string error;
    ASSERT_TRUE(file.load_file(path, &error)) << error;
    expect_refused(file);

    std::string env = "V6D_" + key;
    for (char& c : env) c = static_cast<char>(std::toupper(c));
    setenv(env.c_str(), value.c_str(), 1);
    expect_refused(Options());
    unsetenv(env.c_str());
  }
  std::remove(path.c_str());

  Options good;
  good.set("da_max", "0.002");
  good.set("nx", "12");
  good.set("max_steps", "2000");
  good.set("seed", "18446744073709551615");
  good.set("overlap", "off");
  good.set("enable_tree", "yes");
  const auto cfg = driver::make_config(good, "vlasov_only");
  EXPECT_EQ(cfg.da_max, 0.002);
  EXPECT_EQ(cfg.nx, 12);
  EXPECT_EQ(cfg.max_steps, 2000);
  EXPECT_EQ(cfg.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(cfg.overlap);
  EXPECT_TRUE(cfg.enable_tree);
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

/// `a` and `b` hold the same doubles bit for bit.
bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}
bool same_bits(const mesh::Grid3D<double>& a, const mesh::Grid3D<double>& b) {
  return a.raw_size() == b.raw_size() &&
         same_bits(a.raw(), b.raw(), a.raw_size());
}

// A checkpoint holds state, not forces.  Resumed and synchronized, a
// world-1 run recomputes the step-boundary forces its writer held from
// the state and the scale factor, bit for bit, and reaches the writer's
// synchronized state, at any OpenMP thread count: every threaded loop of
// the force pass writes per-cell or per-line results.
TEST(Driver, ResumeRecomputesTheWritersForcesBitForBit) {
  const std::string dir = temp_dir("v6d_ckpt_recompute");
  Options options;
  options.set("nx", "8");
  options.set("nu", "6");
  options.set("np", "8");
  options.set("max_steps", "2");
  options.set("checkpoint_dir", dir);
  driver::Driver writer(driver::make_config(options, "neutrino_box"));
  ASSERT_EQ(writer.run().reason, driver::StopReason::kMaxSteps);
  // run() settled the owed kick on the step-2 forces and kept them.
  const auto& kept = writer.solver().step_forces();
  ASSERT_TRUE(kept.fresh);
  ASSERT_GT(kept.ax.size(), 0u);
  EXPECT_EQ(kept.a, writer.scale_factor());

  for (const int threads : {0, 1, 3}) {  // 0: the writer's thread count
    SCOPED_TRACE(threads);
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    if (threads > 0) omp_set_num_threads(threads);
#endif
    driver::Driver resumed = driver::Driver::resume(dir);
    EXPECT_FALSE(resumed.solver().step_forces().fresh);
    EXPECT_NE(resumed.solver().step_forces().owed_kick, 0.0);
    resumed.solver().synchronize();
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    const auto& recomputed = resumed.solver().step_forces();
    EXPECT_TRUE(recomputed.fresh);
    EXPECT_EQ(recomputed.a, kept.a);
    EXPECT_EQ(recomputed.owed_kick, 0.0);
    EXPECT_TRUE(same_bits(recomputed.nu_ax, kept.nu_ax));
    EXPECT_TRUE(same_bits(recomputed.nu_ay, kept.nu_ay));
    EXPECT_TRUE(same_bits(recomputed.nu_az, kept.nu_az));
    EXPECT_TRUE(same_bits(recomputed.ax, kept.ax));
    EXPECT_TRUE(same_bits(recomputed.ay, kept.ay));
    EXPECT_TRUE(same_bits(recomputed.az, kept.az));
    expect_bit_identical(writer.solver(), resumed.solver());
  }
  std::filesystem::remove_all(dir);
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
    // Entries are "path":seconds; region paths hold no ',' or '"'.
    std::istringstream entries(
        line.substr(begin, line.find('}', begin) - begin));
    std::set<std::string> keys;
    for (std::string entry; std::getline(entries, entry, ',');)
      keys.insert(entry.substr(1, entry.find('"', 1) - 1));
    rows.push_back(keys);
  }
  return rows;
}

/// `path` is `name` or ends in "/" + name.
bool path_ends_in(const std::string& path, const std::string& name) {
  return path == name ||
         (path.size() > name.size() &&
          path.compare(path.size() - name.size(), name.size(), name) == 0 &&
          path[path.size() - name.size() - 1] == '/');
}

// One loop writes every heartbeat from one record, so a serial and a
// 2-rank run report the same region paths.  Only the waits differ: a
// decomposed axis adds the halo, fold and fill waits that a world of one
// rank never makes.
TEST(Driver, TelemetryRowsHaveOneFormAtEveryRankCount) {
  std::set<std::string> keys[2];
  for (const int ranks : {1, 2}) {
    auto cfg = tiny_config();
    cfg.nx = 8;  // two bricks of 4 >= the ghost width
    cfg.max_steps = 2;
    cfg.ranks = ranks;
    cfg.telemetry = temp_dir("v6d_telemetry_ranks" + std::to_string(ranks));
    driver::Driver d(cfg);
    d.run();
    const auto rows = telemetry_phase_keys(cfg.telemetry);
    ASSERT_EQ(rows.size(), 2u) << ranks << " ranks";
    EXPECT_EQ(rows[0], rows[1]) << ranks << " ranks";
    keys[ranks - 1] = rows[0];
    std::filesystem::remove(cfg.telemetry);
  }
  for (const char* path :
       {"step", "step-control", "step/vlasov/kick", "step/vlasov/drift/halo",
        "step/vlasov-moments", "step/pm/slab-finish/slab-wait", "step/tree"})
    EXPECT_TRUE(keys[0].count(path)) << path;
  for (const auto& key : keys[0]) EXPECT_TRUE(keys[1].count(key)) << key;
  for (const auto& key : keys[1]) {
    if (keys[0].count(key)) continue;
    EXPECT_TRUE(path_ends_in(key, "halo-wait") ||
                path_ends_in(key, "fold-wait") ||
                path_ends_in(key, "fill-wait"))
        << key;
  }
  EXPECT_TRUE(keys[1].count("step/vlasov/drift/halo/halo-finish/halo-wait"));
}

/// Per-leaf sums of the pid-0 span durations of a trace file written by
/// trace::write_chrome_trace (one event per line), in seconds.
std::map<std::string, double> rank0_span_seconds(const std::string& path) {
  std::map<std::string, double> sums;
  std::map<int, std::vector<std::pair<std::string, double>>> open;  // tid
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    char name[64];
    char ph = 0;
    int pid = 0, tid = 0;
    double ts = 0.0;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%63[^\"]\",\"ph\":\"%c\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%lf",
                    name, &ph, &pid, &tid, &ts) != 5 ||
        pid != 0)
      continue;
    auto& stack = open[tid];
    if (ph == 'B') {
      stack.emplace_back(name, ts);
    } else if (ph == 'E' && !stack.empty() && stack.back().first == name) {
      sums[name] += (ts - stack.back().second) * 1e-6;
      stack.pop_back();
    }
  }
  return sums;
}

struct ReportPhase {
  double seconds = 0.0, self_seconds = 0.0;
  long reps = 0;
};

/// The phases of a v6d-perf/1 report written by io::PerfReport, by name.
std::map<std::string, ReportPhase> report_phases(const std::string& path) {
  std::map<std::string, ReportPhase> phases;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    char name[128];
    ReportPhase p;
    double per_rep = 0.0;
    if (std::sscanf(line.c_str(),
                    " { \"name\": \"%127[^\"]\", \"seconds\": %lf, "
                    "\"reps\": %ld, \"seconds_per_rep\": %lf, "
                    "\"self_seconds\": %lf",
                    name, &p.seconds, &p.reps, &per_rep,
                    &p.self_seconds) == 5)
      phases[name] = p;
  }
  return phases;
}

// The trace and the perf report are one record seen twice: every region a
// rank-0 span shows sums to the report's total for its leaf, and each
// report path's total is its children's plus its self time.
TEST(Driver, TraceSpansSumToTheReportAtEveryRankCount) {
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    auto cfg = tiny_config();
    cfg.nx = 8;
    cfg.max_steps = 2;
    cfg.ranks = ranks;
    cfg.trace = temp_dir("v6d_record_trace" + std::to_string(ranks));
    cfg.perf_report = temp_dir("v6d_record_perf" + std::to_string(ranks));
    driver::Driver d(cfg);
    d.run();
    const auto spans = rank0_span_seconds(cfg.trace);
    const auto phases = report_phases(cfg.perf_report);
    std::filesystem::remove(cfg.trace);
    std::filesystem::remove(cfg.perf_report);
    ASSERT_TRUE(spans.count("step"));
    ASSERT_TRUE(phases.count("step"));
    for (const auto& [leaf, seconds] : spans) {
      double total = 0.0;
      long reps = 0;
      for (const auto& [path, p] : phases)
        if (path_ends_in(path, leaf)) {
          total += p.seconds;
          reps += p.reps;
        }
      EXPECT_GT(reps, 0) << leaf << " has spans but no report path";
      EXPECT_NEAR(seconds, total, 1e-9 * static_cast<double>(reps + 1))
          << leaf;
    }
    for (const auto& [path, p] : phases) {
      double children = 0.0;
      for (const auto& [child, c] : phases)
        if (child.size() > path.size() + 1 &&
            child.compare(0, path.size() + 1, path + "/") == 0 &&
            child.find('/', path.size() + 1) == std::string::npos)
          children += c.seconds;
      EXPECT_LE(children, p.seconds + 1e-12) << path;
      EXPECT_NEAR(p.self_seconds, p.seconds - children, 1e-9) << path;
    }
  }
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

// Resume tiles whatever shard set the meta lists into the rebuilt phase
// space, and must refuse any set that is not an exact tiling of it before
// a step runs.  Each case keeps the recorded sizes consistent, so only the
// shard placement checks can catch it.
TEST(Driver, ResumeRefusesADuplicatedShard) {
  const auto dir = two_shard_checkpoint("v6d_shards_duplicated");
  set_meta_field(dir, "shard1", "phase_space.1.r0.bin");
  expect_resume_refused(dir, "overlaps");
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeRefusesAMissingShard) {
  const auto dir = two_shard_checkpoint("v6d_shards_missing");
  set_meta_field(dir, "phase_space_shards", "1");
  set_meta_field(dir, "shard1", std::nullopt);
  expect_resume_refused(dir, "do not cover");
  std::filesystem::remove_all(dir);
}

/// Overwrite shard `name` of the checkpoint in `dir` with `shard` and
/// record its new size.
void replace_shard(const std::string& dir, const std::string& name,
                   const vlasov::PhaseSpace& shard) {
  const auto path = std::filesystem::path(dir) / name;
  ASSERT_EQ(io::write_phase_space(path.string(), shard),
            io::SnapshotStatus::kOk);
  set_meta_field(dir, "bytes." + name,
                 std::to_string(std::filesystem::file_size(path)));
}

TEST(Driver, ResumeRefusesAShardOfAnotherVelocityExtent) {
  const auto dir = two_shard_checkpoint("v6d_shards_velocity");
  const std::string name = "phase_space.1.r1.bin";
  vlasov::PhaseSpace shard;
  ASSERT_EQ(io::read_phase_space(
                (std::filesystem::path(dir) / name).string(), shard),
            io::SnapshotStatus::kOk);
  auto dims = shard.dims();
  dims.nux = dims.nuy = dims.nuz = 4;
  replace_shard(dir, name, vlasov::PhaseSpace(dims, shard.geom()));
  expect_resume_refused(dir, "does not fit");
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeRefusesAShardOutsideTheGrid) {
  const auto dir = two_shard_checkpoint("v6d_shards_outside");
  const std::string name = "phase_space.1.r1.bin";
  vlasov::PhaseSpace shard;
  ASSERT_EQ(io::read_phase_space(
                (std::filesystem::path(dir) / name).string(), shard),
            io::SnapshotStatus::kOk);
  shard.geom().x0 += 8 * shard.geom().dx;  // one whole grid further along x
  replace_shard(dir, name, shard);
  expect_resume_refused(dir, "does not fit");
  std::filesystem::remove_all(dir);
}

// Overriding the box rebuilds a phase space of other cell sizes; its
// shards must not be placed into it (the run would go on with the wrong
// mass).  Twice the box keeps every shard origin on a cell corner, so
// only the cell sizes tell.
TEST(Driver, ResumeRefusesShardsOfOtherCellSizes) {
  const auto dir = two_shard_checkpoint("v6d_shards_cell_sizes");
  Options overrides;
  overrides.set("box", "400");
  expect_resume_refused(dir, "does not fit the grid: other cell sizes",
                        overrides);
  std::filesystem::remove_all(dir);
}

// A checkpoint written by spawn=N echoes its launch wiring.  Resume takes
// transport, rank, world and transport_hosts from the caller, so such a
// checkpoint resumes in process, bit-identically, instead of waiting for
// TCP peers.
TEST(Driver, ResumeTakesTheLaunchWiringFromTheCaller) {
  const auto dir = two_shard_checkpoint("v6d_launch_wiring");
  Options overrides;
  overrides.set("max_steps", "2");
  overrides.set("checkpoint_dir", "");
  driver::Driver plain = driver::Driver::resume(dir, overrides);
  plain.run();

  set_meta_field(dir, "cfg.transport", "tcp");
  set_meta_field(dir, "cfg.rank", "0");
  set_meta_field(dir, "cfg.world", "4");
  set_meta_field(dir, "cfg.transport_hosts", dir + "/rendezvous");
  driver::Driver echoed = driver::Driver::resume(dir, overrides);
  ASSERT_EQ(echoed.config().transport, "inproc");
  EXPECT_EQ(echoed.config().world, 0);
  EXPECT_EQ(echoed.config().transport_hosts, "");
  EXPECT_EQ(echoed.config().ranks, 2);
  echoed.run();
  EXPECT_EQ(echoed.step_count(), 2);
  expect_bit_identical(plain.solver(), echoed.solver());
  std::filesystem::remove_all(dir);
}

/// What a one-step vlasov_only run at `ranks` ranks that checkpoints into
/// `dir` throws ("" if nothing).
std::string checkpoint_failure(int ranks, const std::string& dir) {
  Options options;
  options.set("nx", "8");
  options.set("nu", "6");
  options.set("ranks", std::to_string(ranks));
  options.set("max_steps", "1");
  options.set("checkpoint_dir", dir);
  driver::Driver d(driver::make_config(options, "vlasov_only"));
  try {
    d.run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A checkpoint that cannot be written fails the run on every rank with
// the first failing rank's error, naming the directory or file and the
// OS cause: a directory under a regular file at every rank count, and a
// shard only rank 1 cannot write.
TEST(Driver, CheckpointFailureNamesTheDirectoryAndTheCause) {
  const std::string file = temp_dir("v6d_ckpt_parent_is_a_file");
  std::ofstream(file) << "not a directory";
  const std::string dir = file + "/ck";
  for (const int ranks : {1, 2}) {
    const std::string what = checkpoint_failure(ranks, dir);
    EXPECT_NE(what.find(dir), std::string::npos) << ranks << ": " << what;
    EXPECT_NE(
        what.find(std::make_error_code(std::errc::not_a_directory).message()),
        std::string::npos)
        << ranks << ": " << what;
  }
  std::filesystem::remove(file);

  const std::string shared = temp_dir("v6d_ckpt_one_rank_fails");
  const auto blocked =
      std::filesystem::path(shared) / "phase_space.1.r1.bin.tmp";
  std::filesystem::create_directories(blocked);
  const std::string what = checkpoint_failure(2, shared);
  EXPECT_NE(what.find(blocked.string()), std::string::npos) << what;
  EXPECT_NE(
      what.find(std::make_error_code(std::errc::is_a_directory).message()),
      std::string::npos)
      << what;
  std::filesystem::remove_all(shared);
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
  meta.owed_kick = 1.0 / 3.0;
  meta.rng = rng.state();
  ASSERT_EQ(driver::write_checkpoint(dir, meta, nullptr),
            io::SnapshotStatus::kOk);

  driver::Checkpoint back;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, back),
            io::SnapshotStatus::kOk);
  EXPECT_EQ(back.a, meta.a);
  EXPECT_EQ(back.step, 42);
  EXPECT_EQ(back.owed_kick, meta.owed_kick);
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

/// A copy of the checkpoint `source` in a fresh temp directory `name`.
std::string copy_checkpoint(const std::string& source,
                            const std::string& name) {
  const auto dir = temp_dir(name);
  std::filesystem::copy(source, dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

/// read_checkpoint_meta must refuse `dir` with `status` and an error
/// holding `needle`, and Driver::resume must throw with it too.
void expect_meta_refused(const std::string& dir, io::SnapshotStatus status,
                         const std::string& needle) {
  driver::Checkpoint meta;
  std::string error;
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta, &error), status)
      << needle;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
  expect_resume_refused(dir, needle);
}

// Layouts this build does not read are refused by the meta alone, before
// any payload is opened: a version-1 meta, a version-2 one (its force
// payload has no owed kick), a version-3 one (its owed kick is in a force
// payload, not in the meta), a meta naming the one global phase-space
// payload serial runs wrote before they became world-1 runs, and a meta
// referencing a payload whose size it did not record.
TEST(Checkpoint, RetiredLayoutsAreRefusedByTheMeta) {
  const auto source = two_shard_checkpoint("v6d_ckpt_retired_source");

  std::string dir;
  for (const int version : {1, 2, 3}) {
    dir = copy_checkpoint(source, "v6d_ckpt_retired");
    const auto path = std::filesystem::path(dir) / "meta";
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string header = "v6d-checkpoint 4\n";
    ASSERT_EQ(text.rfind(header, 0), 0u);
    std::ofstream(path) << "v6d-checkpoint " << version << "\n"
                        << text.substr(header.size());
    expect_meta_refused(dir, io::SnapshotStatus::kVersionMismatch,
                        "version " + std::to_string(version));
  }

  dir = copy_checkpoint(source, "v6d_ckpt_retired");
  set_meta_field(dir, "phase_space_file", "phase_space.1.bin");
  expect_meta_refused(dir, io::SnapshotStatus::kVersionMismatch,
                      "field 'phase_space_file'");

  dir = copy_checkpoint(source, "v6d_ckpt_retired");
  set_meta_field(dir, "bytes.phase_space.1.r1.bin", std::nullopt);
  expect_meta_refused(dir, io::SnapshotStatus::kShortRead,
                      "field 'bytes.phase_space.1.r1.bin'");

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(source);
}

// The meta records the kick factor the velocities owe.  Missing, with
// trailing characters, or not finite, it is refused with kBadHeader naming
// the field, by the meta reader and by resume, before a step runs.
TEST(Checkpoint, MetaOwedKickMustBeAFiniteNumber) {
  const auto source = two_shard_checkpoint("v6d_ckpt_owed_source");
  driver::Checkpoint meta;
  ASSERT_EQ(driver::read_checkpoint_meta(source, meta),
            io::SnapshotStatus::kOk);
  EXPECT_TRUE(std::isfinite(meta.owed_kick));
  EXPECT_NE(meta.owed_kick, 0.0);

  const std::vector<std::optional<std::string>> corruptions = {
      std::nullopt, "", "0.25x", "1e", "nan", "inf", "-inf", "1e999"};
  for (const auto& value : corruptions) {
    SCOPED_TRACE(value ? "owed_kick=" + *value : "no owed_kick");
    const auto dir = copy_checkpoint(source, "v6d_ckpt_owed");
    set_meta_field(dir, "owed_kick", value);
    expect_meta_refused(dir, io::SnapshotStatus::kBadHeader,
                        "field 'owed_kick'");
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(source);
}

// The config echo parses as strictly as a command line: a typed key whose
// value does not parse in full is refused with kBadHeader naming its
// `cfg.` field, by the meta reader and by resume, instead of resuming
// with a prefix of the value or the default.
TEST(Checkpoint, ConfigEchoParsesInFull) {
  const auto source = two_shard_checkpoint("v6d_ckpt_echo_source");
  const std::vector<std::pair<std::string, std::string>> corruptions = {
      {"nx", "eight"},      {"nx", "8x"},          {"da_max", "0.0O2"},
      {"max_steps", "2e3"}, {"seed", "-1"},        {"overlap", "maybe"},
      {"ranks", "2.0"},     {"a_final", "0.5.1"},  {"enable_tree", "yes!"}};
  for (const auto& [key, value] : corruptions) {
    SCOPED_TRACE(key + "=" + value);
    const auto dir = copy_checkpoint(source, "v6d_ckpt_echo");
    set_meta_field(dir, "cfg." + key, value);
    expect_meta_refused(dir, io::SnapshotStatus::kBadHeader,
                        "field 'cfg." + key + "'");
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(source);
}

// The echo must hold every key the config writes, or a resume would run
// a missing key at its default: a meta cut just before `cfg.theta=` of a
// theta = 0.5 run once resumed at theta 0.6.  That cut and each single
// missing key are refused with kShortRead naming the field.
TEST(Checkpoint, ConfigEchoMustHoldEveryKey) {
  const auto source = two_shard_checkpoint("v6d_ckpt_cut_source");
  {
    const auto dir = copy_checkpoint(source, "v6d_ckpt_cut");
    const auto path = std::filesystem::path(dir) / "meta";
    std::string text;
    {
      std::ifstream in(path);
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    const std::size_t cut = text.find("\ncfg.theta=");
    ASSERT_NE(cut, std::string::npos);
    std::ofstream(path) << text.substr(0, cut + 1);
    expect_meta_refused(dir, io::SnapshotStatus::kShortRead,
                        "field 'cfg.theta'");
    std::filesystem::remove_all(dir);
  }
  for (const auto& [key, value] : driver::SimulationConfig{}.to_kv()) {
    SCOPED_TRACE("without cfg." + key);
    const auto dir = copy_checkpoint(source, "v6d_ckpt_cut");
    set_meta_field(dir, "cfg." + key, std::nullopt);
    expect_meta_refused(dir, io::SnapshotStatus::kShortRead,
                        "field 'cfg." + key + "'");
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(source);
}

// Every number in the meta must parse to its end: trailing characters, an
// empty value, or a scale factor that is not finite and > 0 is refused
// with kBadHeader naming the field, by the meta reader and by resume.
TEST(Checkpoint, MetaNumbersMustParseToTheirEnd) {
  const auto source = two_shard_checkpoint("v6d_ckpt_numbers_source");
  const std::vector<std::pair<std::string, std::string>> corruptions = {
      {"a", "1.2.3"},
      {"a", "0"},
      {"a", "-0.25"},
      {"a", "inf"},
      {"a", ""},
      {"step", "abc"},
      {"step", "2x"},
      {"step", "-1"},
      {"rng.s0", "12g"},
      {"rng.s1", ""},
      {"rng.s2", "0x1f"},
      {"rng.s3", "-1"},
      {"rng.cached", "2"},
      {"rng.cached", "1 "},
      {"rng.normal", "0.5e"},
      {"rng.normal", "nan"},
      {"phase_space_shards", "2a"},
      {"bytes.phase_space.1.r0.bin", "12z"},
  };
  for (const auto& [field, value] : corruptions) {
    SCOPED_TRACE(field + "=" + value);
    const auto dir = copy_checkpoint(source, "v6d_ckpt_numbers");
    set_meta_field(dir, field, value);
    expect_meta_refused(dir, io::SnapshotStatus::kBadHeader,
                        "field '" + field + "'");
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(source);
}

// Every mutation of a valid version-4 meta — each truncation, a seeded set
// of single-byte flips, and digit, `=` and newline edits, config echo
// included — gets a typed status from the meta reader, which never throws.
// A meta it reads as kOk still holds values that parse, and
// gc_checkpoint_leftovers never throws on the mutated directory.  A typed
// config value with a character appended is refused naming its field:
// the echo parses strictly.
TEST(Checkpoint, MetaSurvivesMutation) {
  namespace fs = std::filesystem;
  const std::string dir = temp_dir("v6d_meta_mutation");
  fs::create_directories(dir);
  // The meta reader and the collector check payload names and sizes, never
  // contents, so a few bytes stand in for each shard.
  const std::vector<std::pair<std::string, std::string>> shards = {
      {"phase_space.7.r0.bin", "shard zero"},
      {"phase_space.7.r1.bin", "shard one"}};
  for (const auto& [name, bytes] : shards)
    std::ofstream(fs::path(dir) / name, std::ios::binary) << bytes;
  nbody::Particles cdm(3);
  cdm.mass = 0.5;
  driver::Checkpoint meta;
  meta.config = tiny_config();
  meta.a = 1.0 / 7.0;
  meta.step = 7;
  meta.owed_kick = 0.0123;
  meta.rng = Xoshiro256(5).state();
  meta.has_particles = true;
  for (const auto& shard : shards) meta.shard_files.push_back(shard.first);
  ASSERT_EQ(driver::write_checkpoint(dir, meta, &cdm),
            io::SnapshotStatus::kOk);
  const auto slurp = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string text = slurp(fs::path(dir) / "meta");
  const std::string particles = slurp(fs::path(dir) / "particles.7.bin");
  ASSERT_EQ(text.rfind("v6d-checkpoint 4\n", 0), 0u);
  ASSERT_FALSE(particles.empty());

  std::string error;  // the last case's
  const auto check = [&](const std::string& mutated, const std::string& what) {
    // The collector may have removed any file of the last case.
    for (const auto& [name, bytes] : shards)
      std::ofstream(fs::path(dir) / name, std::ios::binary) << bytes;
    std::ofstream(fs::path(dir) / "particles.7.bin", std::ios::binary)
        << particles;
    std::ofstream(fs::path(dir) / "meta", std::ios::binary) << mutated;
    driver::Checkpoint back;
    error.clear();
    auto status = io::SnapshotStatus::kOk;
    try {
      status = driver::read_checkpoint_meta(dir, back, &error);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": the meta reader threw " << e.what();
      return io::SnapshotStatus::kBadHeader;
    }
    EXPECT_STRNE(io::to_string(status), "unknown") << what;
    if (status == io::SnapshotStatus::kOk) {
      EXPECT_TRUE(std::isfinite(back.a) && back.a > 0.0) << what;
      EXPECT_GE(back.step, 0) << what;
      EXPECT_TRUE(std::isfinite(back.owed_kick)) << what;
      EXPECT_TRUE(std::isfinite(back.rng.cached_normal)) << what;
      for (const auto& name : back.shard_files)
        EXPECT_EQ(back.payload_bytes.count(name), 1u) << what << ": " << name;
      EXPECT_NO_THROW((void)driver::SimulationConfig::from_kv(
          back.config.to_kv()))
          << what;
      EXPECT_NO_THROW((void)driver::validate_checkpoint_payloads(dir, back))
          << what;
    } else {
      EXPECT_FALSE(error.empty()) << what;
    }
    EXPECT_NO_THROW(driver::gc_checkpoint_leftovers(dir)) << what;
    return status;
  };

  ASSERT_EQ(check(text, "unmutated"), io::SnapshotStatus::kOk);
  // The config echo ends the meta.  A cut at or before the '=' of its last
  // line drops at least one whole key, which the reader refuses; only a
  // cut inside that last value may still read.
  const std::size_t last_eq = text.find('=', text.rfind("\ncfg."));
  ASSERT_NE(last_eq, std::string::npos);
  for (std::size_t n = 0; n < text.size(); ++n) {
    const auto status =
        check(text.substr(0, n), "truncated to " + std::to_string(n));
    if (n <= last_eq) {
      EXPECT_NE(status, io::SnapshotStatus::kOk)
          << "truncated to " << n << " of " << text.size();
    }
  }

  std::mt19937 rng(20261020);
  std::uniform_int_distribution<std::size_t> at(0, text.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255), bit(0, 7);
  for (int k = 0; k < 1500; ++k) {
    auto mutated = text;
    const std::size_t i = at(rng);
    if (k % 2 == 0)
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit(rng)));
    else
      mutated[i] = static_cast<char>(byte(rng));
    check(mutated, "byte " + std::to_string(i) + " set to " +
                       std::to_string(static_cast<unsigned char>(mutated[i])));
  }

  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::string where = " at byte " + std::to_string(i);
    const char c = text[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      auto next = text;
      next[i] = static_cast<char>('0' + (c - '0' + 1) % 10);
      check(next, "digit bumped" + where);
      auto letter = text;
      letter[i] = 'x';
      check(letter, "digit replaced by x" + where);
    } else if (c == '=' || c == '\n') {
      check(text.substr(0, i) + text.substr(i + 1),
            std::string(c == '=' ? "'='" : "newline") + " dropped" + where);
      check(text.substr(0, i + 1) + text.substr(i),
            std::string(c == '=' ? "'='" : "newline") + " doubled" + where);
      if (c == '=')
        check(text.substr(0, i + 1) + "\n" + text.substr(i + 1),
              "newline after '='" + where);
    }
  }

  // Every config value that reads as a number is a typed key's.
  int typed = 0;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    const std::size_t line_end = text.find('\n', line_start);
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    const std::size_t eq = line.find('=');
    if (line.rfind("cfg.", 0) != 0 || eq + 1 >= line.size() ||
        line.find_first_not_of("0123456789.e+-", eq + 1) != std::string::npos)
      continue;
    ++typed;
    const std::string field = line.substr(0, eq);
    auto mutated = text;
    mutated.insert(line_end, "x");
    EXPECT_EQ(check(mutated, field + " with a trailing x"),
              io::SnapshotStatus::kBadHeader);
    EXPECT_NE(error.find("field '" + field + "'"), std::string::npos)
        << error;
  }
  EXPECT_GE(typed, 20);
  fs::remove_all(dir);
}

}  // namespace
