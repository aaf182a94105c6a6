#include "io/perf_report.hpp"

#include <cstdio>
#include <sstream>

#include "common/options.hpp"
#include "simd/dispatch.hpp"

namespace v6d::io {

namespace {

/// %.17g keeps doubles text-round-trip exact and stays valid JSON (no
/// infinities/NaNs are ever produced by the timers; guard anyway).
std::string fmt_double(double v) {
  if (!(v == v)) return "0";            // NaN
  if (v > 1e308 || v < -1e308) return "0";  // +-inf
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PerfReport::add_phase(const std::string& phase_name, double seconds,
                           long reps, double cells, double bytes) {
  phases.push_back({phase_name, seconds, reps, cells, bytes, std::nullopt});
}

void PerfReport::add_metric(const std::string& metric_name, double value,
                            const std::string& unit) {
  metrics.push_back({metric_name, value, unit});
}

void PerfReport::add_timers(const TimerRegistry& timers) {
  for (const auto& b : timers.buckets())
    phases.push_back({b.path, b.seconds, b.count, 0.0, 0.0, b.self_seconds});
}

std::string PerfReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kPerfSchema << "\",\n";
  os << "  \"name\": \"" << json_escape(name) << "\",\n";

  os << "  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : context) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(key) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"phases\": [";
  first = true;
  for (const auto& p : phases) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    { \"name\": \"" << json_escape(p.name)
       << "\", \"seconds\": " << fmt_double(p.seconds)
       << ", \"reps\": " << p.reps;
    const double per_rep = p.reps > 0 ? p.seconds / p.reps : p.seconds;
    os << ", \"seconds_per_rep\": " << fmt_double(per_rep);
    if (p.self_seconds)
      os << ", \"self_seconds\": " << fmt_double(*p.self_seconds);
    if (p.cells > 0.0) {
      os << ", \"cells\": " << fmt_double(p.cells);
      if (per_rep > 0.0)
        os << ", \"cell_updates_per_s\": " << fmt_double(p.cells / per_rep);
    }
    if (p.bytes > 0.0) {
      os << ", \"bytes\": " << fmt_double(p.bytes);
      if (per_rep > 0.0)
        os << ", \"gb_per_s\": " << fmt_double(p.bytes / per_rep / 1e9);
    }
    os << " }";
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"metrics\": [";
  first = true;
  for (const auto& m : metrics) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    { \"name\": \"" << json_escape(m.name)
       << "\", \"value\": " << fmt_double(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\" }";
  }
  os << (first ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

bool PerfReport::write(const std::string& path, std::string* error) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  const bool closed = std::fclose(out) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

PerfReport make_perf_report(const std::string& name) {
  PerfReport report;
  report.name = name;
  const auto isa = simd::isa_info();
  report.context["isa"] = isa.name;
  report.context["float_width"] = std::to_string(isa.float_width);
  // std::string temporaries sidestep a GCC 12 -O3 -Wrestrict false
  // positive on const char* assignment into map-stored strings.
  report.context["fma"] = std::string(isa.has_fma ? "1" : "0");
  report.context["threads"] = std::to_string(simd::thread_count());
  report.context["quick"] = std::string(quick_mode() ? "1" : "0");
  // Simulated-MPI rank count; producers that fan out overwrite this.
  report.context["ranks"] = std::string("1");
  return report;
}

}  // namespace v6d::io
