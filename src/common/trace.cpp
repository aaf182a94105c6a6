#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace v6d::trace {

namespace {

// Single-writer ring (drop-new, not wrap): the owning thread is the only
// writer of `events` and the only one to advance `count`; collect()/stats()
// read `count` with acquire to pair with the writer's release store, which
// publishes the slot contents written before it.
struct ThreadBuffer {
  std::vector<Event> events;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::int32_t tid = 0;
};

std::mutex g_registry_mutex;
std::size_t g_capacity = std::size_t{1} << 16;
std::atomic<std::uint64_t> g_epoch_ns{0};
thread_local ThreadBuffer* t_buf = nullptr;
thread_local std::int32_t t_rank = -1;

std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  // Buffers outlive their owning threads (rank threads join before the
  // driver collects), so the registry owns them for the process lifetime.
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer* register_thread() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->tid = static_cast<std::int32_t>(registry().size());
  buf->events.resize(g_capacity);
  t_buf = buf.get();
  registry().push_back(std::move(buf));
  return t_buf;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

void record(Kind kind, const char* name, std::uint64_t t0, std::uint64_t t1,
            double value) {
  ThreadBuffer* buf = t_buf;
  if (buf == nullptr) buf = register_thread();
  const std::size_t n = buf->count.load(std::memory_order_relaxed);
  if (n >= buf->events.size()) {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = buf->events[n];
  std::strncpy(e.name, name, sizeof e.name - 1);
  e.name[sizeof e.name - 1] = '\0';
  e.t0_ns = t0;
  e.t1_ns = t1 < t0 ? t0 : t1;
  e.value = value;
  e.rank = t_rank;
  e.tid = buf->tid;
  e.kind = kind;
  buf->count.store(n + 1, std::memory_order_release);
}

}  // namespace detail

std::uint64_t clock_ns() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

std::uint64_t since_epoch(std::uint64_t clock) {
  const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  return clock > epoch ? clock - epoch : 0;
}

void enable(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  if (events_per_thread == 0) events_per_thread = 1;
  g_capacity = events_per_thread;
  g_epoch_ns.store(clock_ns(), std::memory_order_relaxed);
  for (auto& buf : registry()) {
    if (buf->count.load(std::memory_order_relaxed) == 0)
      buf->events.resize(g_capacity);
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buf : registry()) {
    buf->count.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
    buf->events.resize(g_capacity);
  }
}

void set_rank(int rank) { t_rank = rank; }

Stats stats() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  Stats s;
  s.threads = registry().size();
  for (const auto& buf : registry()) {
    s.recorded += buf->count.load(std::memory_order_acquire);
    s.dropped += buf->dropped.load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<Event> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Event> out;
  for (const auto& buf : registry()) {
    const std::size_t n = buf->count.load(std::memory_order_acquire);
    out.insert(out.end(), buf->events.begin(),
               buf->events.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Event>& events, std::string* error) {
  // Flatten spans into B/E records, then sort so the file is monotonic in
  // ts and, within a tie, keeps each thread's stack balanced.  Events are
  // recorded at span *end* (destructor order), so within one thread a child
  // span has a smaller record index than its parent.  Tie-break rules:
  //   - E before B before i/C at the same ts (close-then-open never
  //     produces a negative stack);
  //   - B ties: longer span (parent) opens first, then larger index first
  //     (the parent was recorded later);
  //   - E ties: later-started span (child) closes first, then smaller
  //     index first (the child was recorded earlier).
  struct Rec {
    std::uint64_t ts;
    int phase;  // 0 = E, 1 = B, 2 = i/C
    std::uint64_t other;
    std::size_t index;
    const Event* ev;
  };
  std::vector<Rec> recs;
  recs.reserve(events.size() * 2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == Kind::kSpan) {
      // Clamp zero-length spans to 1 ns so B and E stay ordered.
      const std::uint64_t t1 = std::max(e.t1_ns, e.t0_ns + 1);
      recs.push_back({e.t0_ns, 1, t1, i, &e});
      recs.push_back({t1, 0, e.t0_ns, i, &e});
    } else {
      recs.push_back({e.t0_ns, 2, 0, i, &e});
    }
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.phase == 1) {  // B: parent (longer, later-recorded) first
      if (a.other != b.other) return a.other > b.other;
      return a.index > b.index;
    }
    if (a.phase == 0) {  // E: child (later-started, earlier-recorded) first
      if (a.other != b.other) return a.other > b.other;
      return a.index < b.index;
    }
    return a.index < b.index;
  });

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "trace: cannot open " + path;
    return false;
  }
  std::uint64_t dropped = stats().dropped;
  std::string line;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"%llu\"},\n\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped));
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Event& e = *recs[i].ev;
    line.clear();
    line += "{\"name\":\"";
    json_escape_into(line, e.name);
    line += "\",\"ph\":\"";
    char num[96];
    const double ts_us = static_cast<double>(recs[i].ts) / 1000.0;
    switch (recs[i].phase) {
      case 1:
        line += 'B';
        break;
      case 0:
        line += 'E';
        break;
      default:
        line += (e.kind == Kind::kCounter) ? 'C' : 'i';
        break;
    }
    std::snprintf(num, sizeof num, "\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f",
                  e.rank, e.tid, ts_us);
    line += num;
    if (recs[i].phase == 2) {
      if (e.kind == Kind::kCounter) {
        std::snprintf(num, sizeof num, ",\"args\":{\"value\":%.17g}", e.value);
        line += num;
      } else {
        line += ",\"s\":\"t\"";
      }
    }
    line += '}';
    if (i + 1 < recs.size()) line += ',';
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      if (error != nullptr) *error = "trace: short write to " + path;
      return false;
    }
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    if (error != nullptr) *error = "trace: close failed for " + path;
    return false;
  }
  return true;
}

}  // namespace v6d::trace
