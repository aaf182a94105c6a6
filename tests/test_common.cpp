#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "driver/telemetry.hpp"
#include "temp_paths.hpp"

namespace {

using namespace v6d;

TEST(Aligned, VectorIsSimdAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kSimdAlign, 0u);
  AlignedVector<double> w(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kSimdAlign, 0u);
}

// A freed buffer of a MiB or more leaves nothing resident.  Through malloc
// the second one would: freeing the first raises glibc's mmap threshold
// past its size, so the second comes from the heap and stays there.
TEST(Aligned, LargeBuffersLeaveNothingResidentWhenFreed) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "under AddressSanitizer every buffer stays in malloc";
#endif
  const double before = driver::current_rss_mb();
  for (int round = 0; round < 2; ++round) {
    AlignedVector<float> big(std::size_t(7) << 20, 1.0f);  // 28 MiB
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % kSimdAlign, 0u);
  }
  EXPECT_LT(driver::current_rss_mb(), before + 8.0);
}

// Messages stay in malloc's heap, and one sweep's freed messages are the
// next sweep's memory: a round of four 3 MiB messages faults in no pages
// once the first round has.  glibc left to adapt would trim the 12 MiB
// every round, its trim threshold being twice the largest block it freed.
TEST(Aligned, RecycledMessagesFaultInNoPages) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "checks glibc's malloc";
#endif
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const auto round = [] {
    std::vector<std::vector<std::uint8_t>> messages;
    for (int m = 0; m < 4; ++m)
      messages.emplace_back(std::size_t(3) << 20, std::uint8_t{1});
  };
  round();
  const long before = minor_faults();
  for (int r = 0; r < 10; ++r) round();
  EXPECT_LT(minor_faults() - before, 100);
}

TEST(Rng, DeterministicAndWellDistributed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  Xoshiro256 rng(7);
  double mean = 0.0, var = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    mean += x;
  }
  mean /= n;
  EXPECT_NEAR(mean, 0.5, 0.01);
  Xoshiro256 rng2(7);
  for (int i = 0; i < n; ++i) {
    const double d = rng2.next_double() - 0.5;
    var += d * d;
  }
  EXPECT_NEAR(var / n, 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(99);
  const int n = 200000;
  double mean = 0.0, var = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    mean += x;
    var += x * x;
  }
  EXPECT_NEAR(mean / n, 0.0, 0.01);
  EXPECT_NEAR(var / n, 1.0, 0.02);
}

TEST(Rng, SplitStreamsDecorrelated) {
  Xoshiro256 parent(1);
  Xoshiro256 child = parent.split();
  int agree = 0;
  for (int i = 0; i < 64; ++i)
    if ((parent.next_u64() & 1) == (child.next_u64() & 1)) ++agree;
  EXPECT_GT(agree, 16);  // not complementary
  EXPECT_LT(agree, 48);  // not identical
}

TEST(Rng, HashMixSpreadsBits) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(hash_mix(i));
  EXPECT_EQ(seen.size(), 1000u);
}

std::vector<std::string> paths_of(const TimerRegistry& reg) {
  std::vector<std::string> paths;
  for (const auto& b : reg.buckets()) paths.push_back(b.path);
  return paths;
}

TEST(Timer, RegionsNestIntoPaths) {
  TimerRegistry reg;
  for (int step = 0; step < 2; ++step) {
    ScopedTimer t(reg, "step");
    {
      ScopedTimer v("vlasov");  // no registry: the innermost region's
      { ScopedTimer k("kick"); }
      {
        ScopedTimer d("drift");
        for (int axis = 0; axis < 3; ++axis) {
          ScopedTimer h("halo");
        }
      }
    }
    ScopedTimer p(reg, "pm");  // a registry's own region nests as well
  }
  EXPECT_EQ(paths_of(reg),
            (std::vector<std::string>{"step", "step/vlasov",
                                      "step/vlasov/kick", "step/vlasov/drift",
                                      "step/vlasov/drift/halo", "step/pm"}));
  for (const auto& b : reg.buckets())
    EXPECT_EQ(b.count, b.path == "step/vlasov/drift/halo" ? 6 : 2) << b.path;
}

TEST(Timer, SelfTimeIsTotalMinusChildren) {
  TimerRegistry reg;
  {
    ScopedTimer outer(reg, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    for (int i = 0; i < 2; ++i) {
      ScopedTimer inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_GT(reg.self("outer"), 0.003);
  EXPECT_GT(reg.total("inner"), 0.003);
  EXPECT_NEAR(reg.self("outer"), reg.total("outer") - reg.total("inner"),
              1e-12);
  EXPECT_DOUBLE_EQ(reg.self("outer/inner"), reg.total("outer/inner"));
}

TEST(Timer, BareLeafTotalSumsEveryPathEndingInIt) {
  TimerRegistry reg;
  const auto timed = [](const char* name) {
    ScopedTimer t(name);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  {
    ScopedTimer a(reg, "a");
    timed("wait");
  }
  {
    ScopedTimer b(reg, "b");
    timed("wait");
    ScopedTimer c("c");
    timed("wait");
    timed("await");  // ends in "wait", but not at a '/'
  }
  EXPECT_EQ(paths_of(reg),
            (std::vector<std::string>{"a", "a/wait", "b", "b/wait", "b/c",
                                      "b/c/wait", "b/c/await"}));
  EXPECT_EQ(reg.total("wait"), reg.total("a/wait") + reg.total("b/wait") +
                                   reg.total("b/c/wait"));
  EXPECT_GT(reg.total("b/c/await"), 0.0);
  EXPECT_EQ(reg.total("c/wait"), reg.total("b/c/wait"));
  EXPECT_EQ(reg.total("missing"), 0.0);
}

TEST(Timer, RootRegionsKeepSamplesAndMedians) {
  TimerRegistry reg;
  for (const int ms : {1, 5, 3}) {
    ScopedTimer t(reg, "step");
    ScopedTimer inner("inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  auto samples = reg.samples("step");
  ASSERT_EQ(samples.size(), 3u);
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(reg.median_sample("step"), samples[1]);  // odd count: the middle
  EXPECT_GT(samples[1], 0.002);

  {  // a fourth close: an even count averages the two middle samples
    ScopedTimer t(reg, "step");
    std::this_thread::sleep_for(std::chrono::milliseconds(7));
  }
  samples = reg.samples("step");
  ASSERT_EQ(samples.size(), 4u);
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(reg.median_sample("step"), 0.5 * (samples[1] + samples[2]));
  EXPECT_GT(samples[1], 0.002);
  EXPECT_LT(samples[1], samples[2]);
  EXPECT_TRUE(reg.samples("inner").empty());
  EXPECT_EQ(reg.median_sample("missing"), 0.0);
}

TEST(Timer, MergeAddsPathByPath) {
  TimerRegistry a, b;
  {
    ScopedTimer t(a, "step");
    ScopedTimer k("kick");
  }
  {
    ScopedTimer t(b, "step");
    ScopedTimer k("tree");
  }
  TimerRegistry merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(paths_of(merged), (std::vector<std::string>{
                                  "step", "step/kick", "step/tree"}));
  EXPECT_EQ(merged.samples("step").size(), 2u);
  EXPECT_NEAR(merged.total("step"), a.total("step") + b.total("step"), 1e-15);
  EXPECT_NEAR(merged.self("step"), a.self("step") + b.self("step"), 1e-15);
}

// Rank threads time concurrently: each thread nests into its own region
// stack, so a region without a registry lands in its own thread's record,
// or nowhere, never in a peer's open region.
TEST(Timer, RegionsOnTwoThreadsKeepSeparateRecords) {
  TimerRegistry regs[2];
  std::barrier both_open(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      ScopedTimer step(regs[t], "step");
      both_open.arrive_and_wait();
      ScopedTimer leaf(t == 0 ? "left" : "right");
      both_open.arrive_and_wait();
    });
  both_open.arrive_and_wait();
  { ScopedTimer stray("stray"); }  // this thread has no region open
  both_open.arrive_and_wait();
  for (auto& th : threads) th.join();
  EXPECT_EQ(paths_of(regs[0]),
            (std::vector<std::string>{"step", "step/left"}));
  EXPECT_EQ(paths_of(regs[1]),
            (std::vector<std::string>{"step", "step/right"}));
}

TEST(Timer, ScopedTimerMeasuresElapsed) {
  TimerRegistry reg;
  {
    ScopedTimer t(reg, "sleepy");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(reg.total("sleepy"), 0.005);
  EXPECT_LT(reg.total("sleepy"), 1.0);
}

TEST(Log, SinkCapturesFormattedLinesWithMonotonicTimestamps) {
  std::vector<std::string> lines;
  log::set_sink([&](const std::string& line) { lines.push_back(line); });
  log::set_rank(5);
  log::info("halo ", 3, " done");
  log::set_rank(-1);
  log::warn("untagged");
  log::set_sink(nullptr);  // restore stderr before any assertion can log

  ASSERT_EQ(lines.size(), 2u);
  // [seconds][LEVEL][rank N] message — no trailing newline.
  EXPECT_NE(lines[0].find("[INFO][rank 5] halo 3 done"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("[WARN] untagged"), std::string::npos) << lines[1];
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '[');
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  // The leading field is seconds-since-start and must not go backwards.
  const double t0 = std::stod(lines[0].substr(1));
  const double t1 = std::stod(lines[1].substr(1));
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
}

TEST(Options, ParsesKeyValueAndDefaults) {
  const char* argv[] = {"prog", "grid=32", "box=12.5", "simd=off"};
  Options opt(4, const_cast<char**>(argv));
  EXPECT_EQ(opt.get_int("grid", 8), 32);
  EXPECT_DOUBLE_EQ(opt.get_double("box", 1.0), 12.5);
  EXPECT_FALSE(opt.get_bool("simd", true));
  EXPECT_EQ(opt.get_int("missing", 7), 7);
  EXPECT_TRUE(opt.has("grid"));
  EXPECT_FALSE(opt.has("nothere"));
}

TEST(Options, NumericParsingIsCheckedNotAtoi) {
  const char* argv[] = {"prog", "junk=abc", "huge=99999999999999999999",
                        "neg=-99999999999999999999", "dbl=nonsense",
                        "mixed=12cells"};
  Options opt(6, const_cast<char**>(argv));
  // A present value parses in full or throws naming the key and the
  // value: no atoi zero, no default, no saturation, no numeric prefix.
  const auto expect_refused = [&](const std::string& key,
                                  const std::string& value, auto read) {
    try {
      read();
      ADD_FAILURE() << key << " accepted";
    } catch (const BadOptionValue& e) {
      EXPECT_EQ(e.key(), key);
      EXPECT_EQ(e.value(), value);
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  };
  expect_refused("junk", "abc", [&] { (void)opt.get_int("junk", 7); });
  expect_refused("dbl", "nonsense", [&] { (void)opt.get_double("dbl", 2.5); });
  expect_refused("huge", "99999999999999999999",
                 [&] { (void)opt.get_int("huge", 0); });
  expect_refused("neg", "-99999999999999999999",
                 [&] { (void)opt.get_int("neg", 0); });
  expect_refused("mixed", "12cells", [&] { (void)opt.get_int("mixed", 0); });
  EXPECT_THROW((void)opt.get_double("mixed", 0.0), std::invalid_argument);
}

TEST(Options, TypedValuesParseInFull) {
  Options opt;
  opt.set("i", "-42");
  opt.set("d", "2.5e-3");
  opt.set("u", "18446744073709551615");
  opt.set("empty", "");
  EXPECT_EQ(opt.get_int("i", 0), -42);
  EXPECT_EQ(opt.get_double("d", 0.0), 2.5e-3);
  EXPECT_EQ(opt.get_u64("u", 0), 18446744073709551615ULL);
  // An empty value reads as absent.
  EXPECT_EQ(opt.get_int("empty", 7), 7);
  EXPECT_EQ(opt.get_u64("empty", 9), 9u);
  EXPECT_TRUE(opt.get_bool("empty", true));

  for (const char* value :
       {"-1", "1.5", "0x10", "18446744073709551616", " 1"}) {
    Options o;
    o.set("k", value);
    EXPECT_THROW((void)o.get_u64("k", 0), BadOptionValue) << value;
  }
  for (const char* value : {"2e3", "1.0", "+1 ", "2147483648", "one"}) {
    Options o;
    o.set("k", value);
    EXPECT_THROW((void)o.get_int("k", 0), BadOptionValue) << value;
  }
  for (const char* value : {"1.2.3", "0.0O2", "1e", "1e999", "--1"}) {
    Options o;
    o.set("k", value);
    EXPECT_THROW((void)o.get_double("k", 0.0), BadOptionValue) << value;
  }

  const std::pair<const char*, bool> spellings[] = {
      {"1", true},  {"true", true},   {"yes", true}, {"on", true},
      {"0", false}, {"false", false}, {"no", false}, {"off", false}};
  for (const auto& [value, expected] : spellings) {
    Options o;
    o.set("b", value);
    EXPECT_EQ(o.get_bool("b", !expected), expected) << value;
  }
  for (const char* value : {"2", "True", "maybe", "onn", " yes"}) {
    Options o;
    o.set("b", value);
    EXPECT_THROW((void)o.get_bool("b", false), BadOptionValue) << value;
  }
}

TEST(Options, EnvironmentFallback) {
  setenv("V6D_TESTKEY", "41", 1);
  Options opt;
  EXPECT_EQ(opt.get_int("testkey", 0), 41);
  unsetenv("V6D_TESTKEY");
  EXPECT_EQ(opt.get_int("testkey", 5), 5);
}

TEST(Options, ParseCliSeparatesPositionalAndHelp) {
  const char* argv[] = {"prog", "run", "box=42", "--help", "cfgfile"};
  const CliArgs cli = parse_cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.help);
  ASSERT_EQ(cli.positional.size(), 2u);
  EXPECT_EQ(cli.positional[0], "run");
  EXPECT_EQ(cli.positional[1], "cfgfile");
  EXPECT_EQ(cli.options.get_int("box", 0), 42);
}

TEST(Options, LoadFileSectionsCommentsAndPrecedence) {
  const auto path = temp_paths::process_temp_path("v6d_options_test.cfg");
  {
    std::ofstream out(path);
    out << "# full-line comment\n"
        << "alpha = 1\n"
        << "beta = 2  ; trailing comment\n"
        << "\n"
        << "[tree]\n"
        << "theta = 0.7\n";
  }
  Options opt;
  opt.set("alpha", "9");  // CLI value must survive the file load
  std::string error;
  ASSERT_TRUE(opt.load_file(path.string(), &error)) << error;
  EXPECT_EQ(opt.get_int("alpha", 0), 9);
  EXPECT_EQ(opt.get_int("beta", 0), 2);
  EXPECT_DOUBLE_EQ(opt.get_double("tree.theta", 0.0), 0.7);
  std::filesystem::remove(path);
}

TEST(Options, LoadFileRejectsMalformedLinesAndMissingFiles) {
  Options opt;
  std::string error;
  EXPECT_FALSE(opt.load_file("/nonexistent/v6d.cfg", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const auto path = temp_paths::process_temp_path("v6d_malformed.cfg");
  {
    std::ofstream out(path);
    out << "this line has no equals sign\n";
  }
  EXPECT_FALSE(opt.load_file(path.string(), &error));
  EXPECT_NE(error.find(":1:"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Rng, StateRoundTripContinuesStream) {
  Xoshiro256 rng(2024);
  rng.next_normal();  // leave a cached Box-Muller value in the state
  const auto state = rng.state();
  Xoshiro256 other(1);
  other.set_state(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(other.next_u64(), rng.next_u64());
    EXPECT_EQ(other.next_normal(), rng.next_normal());
  }
}

}  // namespace
