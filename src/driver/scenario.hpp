// Scenario registry: named factories that turn a SimulationConfig into
// initial conditions plus a fully configured HybridSolver.
//
// Yoshikawa et al. 2021 run massless and massive boxes from one
// realization (§3, Fig. 4); Inman & Yu 2020 motivate sweeping neutrino
// treatments per scenario.  The registry makes that a one-key change:
// every scenario shares the driver loop, checkpointing, and CLI, and the
// factories own the per-scenario IC recipes that examples and benches
// used to hand-roll.
//
//   neutrino_box  CDM particles + massive-neutrino Vlasov fluid (the
//                 paper's production configuration; mnu=0 degrades to
//                 CDM-only so massless references share the realization)
//   cdm_only      TreePM particles only, no phase space
//   cosmic_web    cdm_only tuned to the larger web-formation box
//   vlasov_only   massive-neutrino fluid only, no particles
//   two_stream    counter-streaming self-gravitating beams on the Vlasov
//                 grid (Jeans-stable at its defaults; examples/two_stream
//                 runs the unstable static problem)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "driver/config.hpp"
#include "hybrid/hybrid_solver.hpp"

namespace v6d::driver {

struct Scenario {
  const char* name;
  const char* summary;
  /// Scenario-specific defaults, applied below file/CLI overrides.
  void (*defaults)(SimulationConfig&);
  /// Build ICs and the configured solver.  With `with_ics` false the
  /// state is allocated at the configured shape but left empty — the
  /// restart path, where the checkpoint payload overwrites it.
  std::unique_ptr<hybrid::HybridSolver> (*build)(const SimulationConfig&,
                                                 bool with_ics);
};

/// All registered scenarios, in listing order.
const std::vector<Scenario>& scenarios();

/// Lookup by name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

/// Layer a full config: struct defaults, then the scenario's defaults
/// (the scenario is named by `overrides` or `scenario_name`), then the
/// overrides (CLI + config file) on top.  Throws std::invalid_argument
/// for an unknown scenario.
SimulationConfig make_config(const Options& overrides,
                             const std::string& scenario_name = "");

}  // namespace v6d::driver
