// Run-health telemetry: a JSONL heartbeat written by the driver.
//
// One JSON object per completed step (`telemetry=` config key), flushed
// immediately so an external watcher — or a post-mortem on a crashed run —
// always sees the latest state: scale factor, dt, CFL shift, mass drift,
// per-phase seconds for the step, communication bytes, and resident-set
// size.  tools/trace_summary.py consumes the stream alongside the Chrome
// trace.  Mass/energy drift was the paper's own per-step health metric
// (§5.3); this makes it watchable live instead of discovered at run end.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "common/timer.hpp"

namespace v6d::driver {

/// One heartbeat row.  `phase_seconds` holds this step's *increment* per
/// timer bucket (the driver snapshots totals around the step and
/// subtracts).
struct Heartbeat {
  std::int64_t step = 0;
  double a = 0.0;
  double da = 0.0;
  double cfl_shift = 0.0;    // max |xi| of the step's position sweeps
  double mass = 0.0;
  double mass_drift = 0.0;   // (mass - mass0) / mass0
  double step_seconds = 0.0;
  std::map<std::string, double> phase_seconds;
  std::uint64_t comm_bytes = 0;  // p2p bytes sent, all ranks, cumulative
  double rss_mb = 0.0;
};

/// Line-oriented JSONL writer (truncates on open, fflush per row).
class TelemetryStream {
 public:
  TelemetryStream() = default;
  ~TelemetryStream() { close(); }
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  bool open(const std::string& path, std::string* error = nullptr);
  void write(const Heartbeat& hb);
  void close();

 private:
  std::FILE* out_ = nullptr;
};

/// Resident-set size of this process in MiB (0 where unsupported).
double current_rss_mb();

/// Snapshot every bucket total of `timers` (helper for per-step deltas).
std::map<std::string, double> timer_totals(const TimerRegistry& timers);

/// after[bucket] - before[bucket] for every bucket in `after`, zero
/// increments included (so every row of a run carries the same keys) —
/// the per-step phase cost.
std::map<std::string, double> timer_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

}  // namespace v6d::driver
