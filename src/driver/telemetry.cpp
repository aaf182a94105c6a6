#include "driver/telemetry.hpp"

#include <cinttypes>
#include <cstring>

#include "io/perf_report.hpp"

namespace v6d::driver {

bool TelemetryStream::open(const std::string& path, std::string* error) {
  close();
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    if (error != nullptr) *error = "telemetry: cannot open " + path;
    return false;
  }
  return true;
}

void TelemetryStream::write(const Heartbeat& hb) {
  if (out_ == nullptr) return;
  std::string line;
  char num[64];
  auto add_number = [&](const char* key, double value) {
    std::snprintf(num, sizeof num, "\"%s\":%.17g,", key, value);
    line += num;
  };
  line += '{';
  std::snprintf(num, sizeof num, "\"step\":%" PRId64 ",", hb.step);
  line += num;
  add_number("a", hb.a);
  add_number("da", hb.da);
  add_number("cfl_shift", hb.cfl_shift);
  add_number("mass", hb.mass);
  add_number("mass_drift", hb.mass_drift);
  add_number("step_seconds", hb.step_seconds);
  line += "\"phase_seconds\":{";
  bool first = true;
  for (const auto& [path, seconds] : hb.phase_seconds) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += io::json_escape(path);
    std::snprintf(num, sizeof num, "\":%.17g", seconds);
    line += num;
  }
  line += "},";
  std::snprintf(num, sizeof num, "\"comm_bytes\":%" PRIu64 ",", hb.comm_bytes);
  line += num;
  std::snprintf(num, sizeof num, "\"rss_mb\":%.3f", hb.rss_mb);
  line += num;
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), out_);
  // Flush per row: the stream's whole point is being readable while the
  // run is alive (or after it died mid-step).
  std::fflush(out_);
}

void TelemetryStream::close() {
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

double current_rss_mb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
#else
  return 0.0;
#endif
}

std::map<std::string, double> timer_totals(const TimerRegistry& timers) {
  std::map<std::string, double> totals;
  for (const auto& b : timers.buckets()) totals[b.path] = b.seconds;
  return totals;
}

std::map<std::string, double> timer_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [bucket, total] : after) {
    auto it = before.find(bucket);
    delta[bucket] = total - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

}  // namespace v6d::driver
