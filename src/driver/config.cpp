#include "driver/config.hpp"

#include <cinttypes>
#include <cstdio>

namespace v6d::driver {

namespace {

/// %.17g round-trips IEEE-754 doubles exactly through text.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

void SimulationConfig::apply(const Options& options) {
  scenario = options.get("scenario", scenario);

  box = options.get_double("box", box);
  m_nu_ev = options.get_double("mnu", m_nu_ev);
  nx = options.get_int("nx", nx);
  nu = options.get_int("nu", nu);
  np = options.get_int("np", np);
  a_init = options.get_double("a_init", a_init);
  a_final = options.get_double("a_final", a_final);
  da_max = options.get_double("da_max", da_max);
  cfl = options.get_double("cfl", cfl);
  theta = options.get_double("theta", theta);
  eps_cells = options.get_double("eps_cells", eps_cells);
  enable_tree = options.get_bool("enable_tree", enable_tree);
  seed = options.get_u64("seed", seed);

  u_beam = options.get_double("u_beam", u_beam);
  beam_sigma = options.get_double("beam_sigma", beam_sigma);
  perturb_amp = options.get_double("perturb_amp", perturb_amp);

  ranks = options.get_int("ranks", ranks);
  decomp = options.get("decomp", decomp);
  overlap = options.get_bool("overlap", overlap);
  transport = options.get("transport", transport);
  rank = options.get_int("rank", rank);
  world = options.get_int("world", world);
  transport_hosts = options.get("transport_hosts", transport_hosts);
  transport_timeout = options.get_double("transport_timeout",
                                         transport_timeout);

  max_steps = options.get_int("max_steps", max_steps);
  checkpoint_every = options.get_int("checkpoint_every", checkpoint_every);
  checkpoint_dir = options.get("checkpoint_dir", checkpoint_dir);
  wall_budget_s = options.get_double("wall_budget_s", wall_budget_s);
  progress_every = options.get_int("progress_every", progress_every);
  perf_report = options.get("perf_report", perf_report);
  trace = options.get("trace", trace);
  telemetry = options.get("telemetry", telemetry);
}

std::map<std::string, std::string> SimulationConfig::to_kv() const {
  std::map<std::string, std::string> kv;
  kv["scenario"] = scenario;
  kv["box"] = fmt_double(box);
  kv["mnu"] = fmt_double(m_nu_ev);
  kv["nx"] = fmt_int(nx);
  kv["nu"] = fmt_int(nu);
  kv["np"] = fmt_int(np);
  kv["a_init"] = fmt_double(a_init);
  kv["a_final"] = fmt_double(a_final);
  kv["da_max"] = fmt_double(da_max);
  kv["cfl"] = fmt_double(cfl);
  kv["theta"] = fmt_double(theta);
  kv["eps_cells"] = fmt_double(eps_cells);
  kv["enable_tree"] = fmt_int(enable_tree ? 1 : 0);
  kv["seed"] = fmt_u64(seed);
  kv["u_beam"] = fmt_double(u_beam);
  kv["beam_sigma"] = fmt_double(beam_sigma);
  kv["perturb_amp"] = fmt_double(perturb_amp);
  kv["ranks"] = fmt_int(ranks);
  kv["decomp"] = decomp;
  kv["overlap"] = fmt_int(overlap ? 1 : 0);
  kv["transport"] = transport;
  kv["rank"] = fmt_int(rank);
  kv["world"] = fmt_int(world);
  kv["transport_hosts"] = transport_hosts;
  kv["transport_timeout"] = fmt_double(transport_timeout);
  kv["max_steps"] = fmt_int(max_steps);
  kv["checkpoint_every"] = fmt_int(checkpoint_every);
  kv["checkpoint_dir"] = checkpoint_dir;
  kv["wall_budget_s"] = fmt_double(wall_budget_s);
  kv["progress_every"] = fmt_int(progress_every);
  kv["perf_report"] = perf_report;
  kv["trace"] = trace;
  kv["telemetry"] = telemetry;
  return kv;
}

SimulationConfig SimulationConfig::from_kv(
    const std::map<std::string, std::string>& kv) {
  Options options;
  for (const auto& [key, value] : kv) options.set(key, value);
  SimulationConfig cfg;
  cfg.apply(options);
  return cfg;
}

}  // namespace v6d::driver
