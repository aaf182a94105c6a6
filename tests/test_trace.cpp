// common/trace: the per-thread event ring, the enabled() gate, and the
// Chrome trace_event writer (emit -> parse -> nesting validated), fed by
// the timed regions of common/timer.
//
// Every test brackets itself with reset()/enable() ... disable()/reset()
// because the registry is process-global and suites share the binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/runner.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace {

using namespace v6d;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Count non-overlapping occurrences of `needle`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable();
    trace::reset();
  }
  void TearDown() override {
    trace::disable();
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    ScopedTimer region("ignored");
    trace::instant("ignored-too");
    trace::counter("ignored-counter", 1.0);
  }
  EXPECT_EQ(trace::collect().size(), 0u);
  EXPECT_EQ(trace::stats().recorded, 0u);
}

TEST_F(TraceTest, RegionNestingRoundtrip) {
  trace::enable();
  trace::set_rank(0);
  TimerRegistry reg;
  {
    ScopedTimer outer(reg, "outer");
    {
      ScopedTimer inner("inner");
    }
  }
  trace::disable();

  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  // Destructor order: inner is recorded first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_LE(events[1].t0_ns, events[0].t0_ns);
  EXPECT_GE(events[1].t1_ns, events[0].t1_ns);
  // The span and the record come from the same two clock reads.
  const auto seconds = [](const trace::Event& e) {
    return static_cast<double>(e.t1_ns - e.t0_ns) * 1e-9;
  };
  EXPECT_EQ(seconds(events[0]), reg.total("outer/inner"));
  EXPECT_EQ(seconds(events[1]), reg.total("outer"));

  const std::string path = "test_trace_nesting.json";
  std::string error;
  ASSERT_TRUE(trace::write_chrome_trace(path, events, &error)) << error;
  const std::string json = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 2u);
  // File order must nest: B outer, B inner, E inner, E outer.
  const std::size_t b_outer = json.find("{\"name\":\"outer\",\"ph\":\"B\"");
  const std::size_t b_inner = json.find("{\"name\":\"inner\",\"ph\":\"B\"");
  const std::size_t e_inner = json.find("{\"name\":\"inner\",\"ph\":\"E\"");
  const std::size_t e_outer = json.find("{\"name\":\"outer\",\"ph\":\"E\"");
  ASSERT_NE(b_outer, std::string::npos);
  ASSERT_NE(b_inner, std::string::npos);
  ASSERT_NE(e_inner, std::string::npos);
  ASSERT_NE(e_outer, std::string::npos);
  EXPECT_LT(b_outer, b_inner);
  EXPECT_LT(b_inner, e_inner);
  EXPECT_LT(e_inner, e_outer);
}

// A region with no open parent has no record to write: it emits its span
// and nothing else, not even into the registry of a region closed before.
TEST_F(TraceTest, RegionWithoutParentEmitsSpanAndRecordsNothing) {
  trace::enable();
  TimerRegistry reg;
  {
    ScopedTimer t(reg, "unit-test-region");
  }
  {
    ScopedTimer lone("lone");
  }
  trace::disable();
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "unit-test-region");
  EXPECT_STREQ(events[1].name, "lone");
  EXPECT_EQ(events[1].kind, trace::Kind::kSpan);
  ASSERT_EQ(reg.buckets().size(), 1u);
  EXPECT_EQ(reg.buckets()[0].path, "unit-test-region");
  EXPECT_GT(reg.total("unit-test-region"), 0.0);
}

TEST_F(TraceTest, CounterAndInstantCarryPayload) {
  trace::enable();
  trace::set_rank(3);
  trace::counter("unit-counter", 2.5);
  trace::instant("unit-marker");
  trace::disable();
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace::Kind::kCounter);
  EXPECT_DOUBLE_EQ(events[0].value, 2.5);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_EQ(events[1].kind, trace::Kind::kInstant);
  EXPECT_EQ(events[1].t0_ns, events[1].t1_ns);

  const std::string path = "test_trace_counter.json";
  std::string error;
  ASSERT_TRUE(trace::write_chrome_trace(path, events, &error)) << error;
  const std::string json = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

TEST_F(TraceTest, FullBufferDropsNewEventsAndCounts) {
  trace::enable(4);
  for (int i = 0; i < 10; ++i) trace::instant("flood");
  trace::disable();
  const auto s = trace::stats();
  EXPECT_EQ(s.recorded, 4u);
  EXPECT_EQ(s.dropped, 6u);
  EXPECT_EQ(trace::collect().size(), 4u);
  // reset() restores capacity and clears the drop counter.
  trace::reset();
  EXPECT_EQ(trace::stats().dropped, 0u);
}

TEST_F(TraceTest, ZeroLengthSpanStaysOrderedInFile) {
  trace::enable();
  const std::uint64_t t = trace::now_ns();
  trace::emit_span("zero", t, t);
  trace::disable();
  const std::string path = "test_trace_zero.json";
  std::string error;
  ASSERT_TRUE(trace::write_chrome_trace(path, trace::collect(), &error))
      << error;
  const std::string json = slurp(path);
  std::remove(path.c_str());
  const std::size_t b = json.find("\"ph\":\"B\"");
  const std::size_t e = json.find("\"ph\":\"E\"");
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  EXPECT_LT(b, e);  // clamped to 1 ns, so B sorts strictly before E
}

TEST_F(TraceTest, MultiRankRoundtripTagsEveryRank) {
  trace::enable();
  comm::run(4, [&](comm::Communicator& comm) {
    trace::set_rank(comm.rank());
    ScopedTimer region("rank-work");
    trace::counter("rank-bytes", static_cast<double>(comm.rank()) * 8.0);
    comm.barrier();
  });
  trace::disable();

  const auto events = trace::collect();
  // 4 spans + 4 counters from the rank threads (the barrier itself does
  // not record).
  std::vector<int> span_ranks;
  std::vector<int> counter_ranks;
  for (const auto& e : events) {
    if (std::string(e.name) == "rank-work") span_ranks.push_back(e.rank);
    if (std::string(e.name) == "rank-bytes") counter_ranks.push_back(e.rank);
  }
  std::sort(span_ranks.begin(), span_ranks.end());
  std::sort(counter_ranks.begin(), counter_ranks.end());
  EXPECT_EQ(span_ranks, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(counter_ranks, (std::vector<int>{0, 1, 2, 3}));

  const std::string path = "test_trace_ranks.json";
  std::string error;
  ASSERT_TRUE(trace::write_chrome_trace(path, events, &error)) << error;
  const std::string json = slurp(path);
  std::remove(path.c_str());
  // Every rank appears as its own pid lane, B/E balanced overall.
  for (int r = 0; r < 4; ++r) {
    const std::string pid = "\"pid\":" + std::to_string(r);
    EXPECT_NE(json.find(pid), std::string::npos) << pid;
  }
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), count_of(json, "\"ph\":\"E\""));
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 4u);
  EXPECT_EQ(count_of(json, "\"ph\":\"C\""), 4u);
}

TEST_F(TraceTest, NameLongerThanSlotIsTruncatedNotCorrupted) {
  trace::enable();
  const std::string longname(100, 'x');
  trace::instant(longname.c_str());
  trace::disable();
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 1u);
  const std::string got = events[0].name;
  EXPECT_EQ(got.size(), sizeof(trace::Event{}.name) - 1);
  EXPECT_EQ(got, longname.substr(0, got.size()));
}

}  // namespace
