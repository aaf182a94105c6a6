// Run-wide configuration for the simulation driver.
//
// One flat struct covers every registry scenario: physics/discretization
// keys (box, grids, neutrino mass, seeds) plus the driver-control keys
// (step limits, wall-clock budget, checkpoint cadence).  Values flow in
// with the precedence  command line > config file > environment (V6D_*) >
// scenario defaults > struct defaults  and flow out as an exact-round-trip
// key=value map, which is how a checkpoint remembers the run that wrote it
// (doubles are printed with %.17g, so they survive text round-trips
// bit-identically).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/options.hpp"

namespace v6d::driver {

struct SimulationConfig {
  std::string scenario = "neutrino_box";

  // --- physics / discretization ---
  double box = 200.0;     // comoving box side [h^-1 Mpc]
  double m_nu_ev = 0.4;   // total neutrino mass [eV]; <= 0 disables f
  int nx = 8;             // Vlasov spatial grid (and PM mesh) per side
  int nu = 10;            // velocity grid per side
  int np = 16;            // CDM particles per side; 0 disables particles
  double a_init = 1.0 / 11.0;  // starting epoch (z = 10)
  double a_final = 0.5;
  double da_max = 0.05;   // CFL search ceiling per step
  double cfl = 0.9;       // position-sweep |xi| bound
  double theta = 0.6;     // tree opening angle
  double eps_cells = 0.1; // softening in PM cells
  bool enable_tree = true;
  std::uint64_t seed = 77;  // one seed -> one realization for all species

  // --- two_stream scenario knobs ---
  double u_beam = 2.0;      // beam canonical velocity
  double beam_sigma = 0.3;  // beam thermal width
  double perturb_amp = 0.02;  // seeded k=1 density perturbation

  // --- distributed execution ---
  int ranks = 1;              // simulated MPI ranks; > 1 runs the
                              // distributed path (src/parallel/)
  std::string transport = "inproc";  // "inproc" = thread ranks in this
                                     // process; "tcp" = this process is ONE
                                     // rank of a multi-process world
  int rank = 0;               // this process's rank (transport=tcp)
  int world = 0;              // total processes (transport=tcp); overrides
                              // `ranks` when set
  std::string transport_hosts = "";  // tcp rendezvous: "host:port,..." list
                                     // (entry r = rank r) or a shared
                                     // directory path (env fallback
                                     // V6D_TRANSPORT_HOSTS)
  std::string decomp = "";    // "DXxDYxDZ" rank topology ("" / "auto" =
                              // pick the most-cubic feasible split)
  double transport_timeout = 0.0;  // tcp liveness deadline [s]: a peer
                                   // silent this long is declared lost and
                                   // the run aborts with a retryable
                                   // TransportError (0 = detection off;
                                   // meaningless for inproc)
  bool overlap = true;        // complete each fold/slab exchange after
                              // the compute it hides behind (off: right
                              // after its begin); both modes send the
                              // same messages and are bit-identical

  // --- driver control ---
  int max_steps = 0;          // stop after this many total steps (0 = off)
  int checkpoint_every = 0;   // steps between periodic checkpoints (0 = off)
  std::string checkpoint_dir = "checkpoint";  // also written on early stop
  double wall_budget_s = 0.0;  // wall-clock budget for run() (0 = off)
  int progress_every = 0;      // progress line cadence in steps (0 = quiet)
  std::string perf_report = "";  // v6d-perf/1 JSON path, written when run()
                                 // stops ("" = off)
  std::string trace = "";      // Chrome trace_event JSON path, merged over
                               // all ranks when run() stops ("" = off)
  std::string telemetry = "";  // JSONL heartbeat path, one row per step
                               // ("" = off)

  /// Overwrite every field whose key is present in `options` (or in the
  /// V6D_* environment).  Absent keys keep their current values, so the
  /// caller layers sources by calling apply() from lowest precedence up.
  /// A typed key's value must parse in full (Options' typed getters), or
  /// this throws BadOptionValue naming the key and the value.
  void apply(const Options& options);

  /// Exact-round-trip dump of every field (checkpoint config echo).
  std::map<std::string, std::string> to_kv() const;
  static SimulationConfig from_kv(
      const std::map<std::string, std::string>& kv);

  bool has_neutrinos() const { return m_nu_ev > 0.0 && nx > 0 && nu > 0; }
  bool has_particles() const { return np > 0; }
};

}  // namespace v6d::driver
