// Schema-versioned performance reports (the BENCH_*.json / perf.json
// format).
//
// One reporter serves both producers of timing data: the bench harness
// (bench/harness.hpp wraps it with phase timing and rate computation) and
// the simulation driver (the paths of a TimerRegistry from a real run).
// Consumers — the CI perf-smoke job, tools/check_bench_schema.py, and
// cross-PR trajectory comparisons — parse only this schema:
//
//   {
//     "schema": "v6d-perf/1",
//     "name": "<report name>",
//     "context": { "<key>": "<string value>", ... },
//     "phases": [
//       { "name": "...", "seconds": <total>, "reps": <n>,
//         "seconds_per_rep": <t>, "self_seconds": <t>, "cells": <per rep>,
//         "bytes": <per rep>, "cell_updates_per_s": <rate>,
//         "gb_per_s": <rate> }, ...
//     ],
//     "metrics": [ { "name": "...", "value": <v>, "unit": "..." }, ... ]
//   }
//
// "cells"/"bytes" and the derived rates are emitted only when nonzero,
// "self_seconds" only for a timed region (its total minus its children's).
// The schema string is bumped on any backwards-incompatible change.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace v6d::io {

inline constexpr const char* kPerfSchema = "v6d-perf/1";

/// One timed phase.  `seconds` is the total over `reps` repetitions;
/// `cells` / `bytes` describe the work of a single repetition (cell
/// updates performed, bytes moved) and feed the derived rates.
struct PerfPhase {
  std::string name;
  double seconds = 0.0;
  long reps = 1;
  double cells = 0.0;
  double bytes = 0.0;
  std::optional<double> self_seconds;  // timed regions only
};

/// A named scalar result (speedups, errors, counts) with a free-form unit.
struct PerfMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PerfReport {
  std::string name;
  std::map<std::string, std::string> context;
  std::vector<PerfPhase> phases;
  std::vector<PerfMetric> metrics;

  void add_phase(const std::string& phase_name, double seconds, long reps = 1,
                 double cells = 0.0, double bytes = 0.0);
  void add_metric(const std::string& metric_name, double value,
                  const std::string& unit = "");
  /// Import every path of a TimerRegistry as a phase: its total over
  /// `reps` = closes, with its self time (no work counters).
  void add_timers(const TimerRegistry& timers);

  std::string to_json() const;
  /// Serialize to `path`; false (with *error set) on I/O failure.
  bool write(const std::string& path, std::string* error = nullptr) const;
};

/// A report pre-filled with the shared execution context: ISA name and
/// fp32 width, FMA availability, OpenMP thread count, quick-mode flag.
PerfReport make_perf_report(const std::string& name);

/// JSON string escaping (exposed for tests).
std::string json_escape(const std::string& text);

}  // namespace v6d::io
