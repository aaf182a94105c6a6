// Per-thread event tracing with Chrome trace_event JSON output.
//
// The paper's performance analysis (§6.1) needs to know *when* each phase of
// a step ran on each rank, not just its accumulated total: did the halo sends
// posted by HaloPlan::begin_axis actually fly while the interior sweeps ran,
// or did finish_axis stall?  TimerRegistry answers "how much", this answers
// "when"; both come from the same regions (common/timer.hpp), which emit
// their spans here.  Every rank thread records spans/instants/counters into
// its own fixed-capacity buffer (single-writer, no locks on the hot path)
// and the driver flushes the merged stream as Chrome trace_event JSON,
// loadable in Perfetto / chrome://tracing.
//
// Cost model: when tracing is disabled (the default), every emit call is one
// relaxed atomic load and a branch — cheap enough to leave the
// instrumentation in the production hot path permanently.  When enabled, a
// record is a strncpy + a handful of stores into a preallocated slot; a full
// buffer drops new events (counted) rather than blocking or reallocating.
//
// Threading contract: recording is safe from any number of threads
// concurrently (each writes only its own buffer).  enable() / disable() /
// reset() / collect() are *control-plane* calls — they must run while no
// other thread is recording (before comm::run starts the rank threads or
// after it joins them; thread create/join gives the happens-before edge).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace v6d::trace {

enum class Kind : std::uint8_t { kSpan = 0, kInstant = 1, kCounter = 2 };

/// One recorded event.  `name` is truncated to fit; timestamps are
/// nanoseconds since the enable() epoch (steady clock).
struct Event {
  char name[40];
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;  // == t0_ns for instants/counters
  double value;         // counters only
  std::int32_t rank;    // -1 when the thread never called set_rank()
  std::int32_t tid;     // registration order, unique per thread
  Kind kind;
};

namespace detail {
extern std::atomic<bool> g_enabled;
void record(Kind kind, const char* name, std::uint64_t t0, std::uint64_t t1,
            double value);
}  // namespace detail

/// True when tracing is active.  Relaxed load; the only cost paid when off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// A steady-clock reading in nanoseconds.
std::uint64_t clock_ns();
/// A clock_ns() reading as nanoseconds since the enable() epoch (0 for a
/// reading before it).
std::uint64_t since_epoch(std::uint64_t clock);
/// Nanoseconds since the enable() epoch.
inline std::uint64_t now_ns() { return since_epoch(clock_ns()); }

/// Start tracing.  Sets the timestamp epoch to "now" and (re)sizes each
/// idle per-thread buffer to `events_per_thread` slots.  Control-plane.
void enable(std::size_t events_per_thread = std::size_t{1} << 16);

/// Stop tracing.  Already-recorded events stay available to collect().
void disable();

/// Drop all recorded events and clear drop counters.  Control-plane.
void reset();

/// Tag subsequent events from this thread with a rank id (mirrors
/// log::set_rank; -1 = untagged).
void set_rank(int rank);

/// Record a completed span [t0, t1] (nanoseconds since the epoch).
inline void emit_span(const char* name, std::uint64_t t0, std::uint64_t t1) {
  if (enabled()) detail::record(Kind::kSpan, name, t0, t1, 0.0);
}

/// Record a zero-duration marker at "now".
inline void instant(const char* name) {
  if (enabled()) {
    const std::uint64_t t = now_ns();
    detail::record(Kind::kInstant, name, t, t, 0.0);
  }
}

/// Record a counter sample (rendered as a track in Perfetto).
inline void counter(const char* name, double value) {
  if (enabled()) {
    const std::uint64_t t = now_ns();
    detail::record(Kind::kCounter, name, t, t, value);
  }
}

struct Stats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::size_t threads = 0;
};

/// Snapshot of recording volume across all registered threads.
Stats stats();

/// Copy out every recorded event (all threads, unsorted).  Control-plane.
std::vector<Event> collect();

/// Serialize events as Chrome trace_event JSON ({"traceEvents": [...]}):
/// B/E pairs for spans, "i" instants, "C" counters; pid = rank, tid =
/// per-thread registration id, ts in microseconds.  Events are sorted so
/// file order is monotonic in ts with nesting-consistent tie-breaks.
/// Returns false (with `error` set) on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Event>& events,
                        std::string* error = nullptr);

}  // namespace v6d::trace
