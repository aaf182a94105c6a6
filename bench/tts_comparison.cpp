// §7.2: time-to-solution — hybrid Vlasov/N-body versus a TianNu-style
// pure N-body run (CDM particles + 8x neutrino particles) from the same
// initial conditions, both evolved z=10 -> z=0 with I/O included, at
// matched *effective* neutrino resolution per the paper's Eq. (9)-(10).
#include <cstdio>

#include "cosmology/neutrino_ic.hpp"
#include "harness.hpp"
#include "cosmology/zeldovich.hpp"
#include "diagnostics/noise.hpp"
#include "diagnostics/spectra.hpp"
#include "hybrid/nbody_solver.hpp"
#include "hybrid_setup.hpp"
#include "io/snapshot.hpp"

using namespace v6d;

int main(int argc, char** argv) {
  bench::Harness harness("tts_comparison", argc, argv);
  auto& opt = harness.options();
  harness.banner("Time-to-solution: hybrid Vlasov/N-body vs pure N-body",
                 "paper §7.2 (TianNu comparison; Eq. 9-10)");

  bench::HybridRunConfig cfg;
  cfg.box = 1200.0;
  cfg.nx = opt.get_int("nx", bench::scaled(10, 6));
  cfg.nu = opt.get_int("nu", bench::scaled(10, 8));
  cfg.cdm_per_side = opt.get_int("np", bench::scaled(20, 10));
  cfg.a_final = opt.get_double("a_final", bench::scaled(10, 4) / 10.0);
  cfg.da_max = 0.05;

  // ---- Eq. (9)-(10): effective resolution of particle neutrino fields ----
  std::printf("  Eq. (10) table — effective resolution of an N-body\n");
  std::printf("  neutrino field at a given signal-to-noise (paper values):\n\n");
  {
    io::TableWriter table({"N_nu per side", "S/N", "DeltaL / L",
                           "equiv. Vlasov Nx"});
    const double n3 = std::pow(13824.0, 3);  // TianNu's neutrino count
    for (double sn : {100.0, 50.0}) {
      const double dl = diag::equivalent_resolution(1.0, n3, sn);
      table.row({"13824", io::TableWriter::fmt(sn, 3),
                 "1/" + io::TableWriter::fmt(1.0 / dl, 4),
                 io::TableWriter::fmt(1.0 / dl, 4) + "^3"});
    }
    table.print();
    std::printf(
        "      (paper: S/N=100 -> L/640 ~ the H group's 768^3; S/N=50 ->\n"
        "       L/1018 ~ the U group's 1152^3)\n\n");
  }

  // ---- matched runs on this host ----
  std::printf("  running the hybrid Vlasov/N-body configuration ...\n");
  Stopwatch hybrid_watch;
  auto run = bench::make_hybrid_run(cfg);
  bench::evolve(run, cfg);
  io::write_phase_space("tts_hybrid_nu.snap", run.solver->neutrinos());
  io::write_particles("tts_hybrid_cdm.snap", run.solver->cdm());
  const double t_hybrid = hybrid_watch.seconds();

  std::printf("  running the pure N-body configuration (8x nu particles)...\n");
  Stopwatch nbody_watch;
  cosmo::Params params = cosmo::Params::planck2015(cfg.m_nu_ev);
  cosmo::PowerSpectrum ps(params);
  cosmo::Background bg(params);
  cosmo::ZeldovichOptions zopt;
  zopt.particles_per_side = cfg.cdm_per_side;
  zopt.a_init = cfg.a_init;
  zopt.seed = cfg.seed;
  auto cdm_ics = cosmo::zeldovich_ics(ps, cfg.box, zopt);
  cosmo::NeutrinoIcOptions nopt;
  nopt.a_init = cfg.a_init;
  nopt.seed = cfg.seed;
  const double u_th =
      cosmo::neutrino_thermal_velocity(params.m_nu_total_ev / 3.0);
  auto nu_parts = cosmo::sample_neutrino_particles(
      ps, cfg.box, 2 * cfg.cdm_per_side, u_th, nopt);
  const double n_nu_particles = static_cast<double>(nu_parts.size());
  hybrid::HybridOptions nbopt;
  nbopt.pm_grid = cfg.nx;
  nbopt.treepm.theta = 0.6;
  nbopt.treepm.eps_cells = 0.1;
  hybrid::NBodySolver nbody(cfg.box, bg, nbopt);
  nbody.set_cdm(std::move(cdm_ics.particles));
  nbody.set_hot(std::move(nu_parts));
  int nbody_steps = 0;
  {
    double a = cfg.a_init;
    while (a < cfg.a_final - 1e-12) {
      const double a1 = std::min(a + cfg.da_max, cfg.a_final);
      nbody.step(a, a1);
      a = a1;
      ++nbody_steps;
    }
    nbody.synchronize();  // the snapshots hold velocities at a_final
  }
  io::write_particles("tts_nbody_nu.snap", *nbody.hot());
  io::write_particles("tts_nbody_cdm.snap", nbody.cdm());
  const double t_nbody = nbody_watch.seconds();

  // Noise comparison at matched grid resolution.
  mesh::Grid3D<double> rho_v(cfg.nx, cfg.nx, cfg.nx);
  vlasov::compute_density(run.solver->neutrinos(), rho_v);
  mesh::Grid3D<double> rho_p(cfg.nx, cfg.nx, cfg.nx);
  {
    const double h = cfg.box / cfg.nx;
    const auto& hot = *nbody.hot();
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const int ci = std::min(cfg.nx - 1, static_cast<int>(hot.x[i] / h));
      const int cj = std::min(cfg.nx - 1, static_cast<int>(hot.y[i] / h));
      const int ck = std::min(cfg.nx - 1, static_cast<int>(hot.z[i] / h));
      rho_p.at(ci, cj, ck) += hot.mass / (h * h * h);
    }
  }
  const auto bins_p = diag::measure_power(rho_p, cfg.box);
  const double shot_excess =
      diag::shot_noise_excess(bins_p, cfg.box, n_nu_particles);

  io::TableWriter table({"configuration", "wall time [s]", "steps",
                         "nu shot noise"});
  table.row({"hybrid Vlasov/N-body", io::TableWriter::fmt(t_hybrid, 4),
             std::to_string(run.steps_taken), "none (continuum f)"});
  table.row({"pure N-body (8x nu parts)", io::TableWriter::fmt(t_nbody, 4),
             std::to_string(nbody_steps),
             "P_hi-k/P_Poisson = " + io::TableWriter::fmt(shot_excess, 3)});
  table.print();

  // End-to-end wall times (ICs + evolution + snapshot I/O, as in §7.2) —
  // reps=1 so seconds_per_rep never reads as a per-step rate.
  harness.add_phase("hybrid_run", t_hybrid);
  harness.add_phase("nbody_run", t_nbody);
  harness.metric("hybrid_steps", run.steps_taken);
  harness.metric("nbody_steps", nbody_steps);
  harness.metric("tts_ratio_nbody_over_hybrid", t_nbody / t_hybrid, "x");
  harness.metric("nbody_shot_noise_excess", shot_excess);
  std::printf(
      "\n  ratio (N-body / hybrid): %.2fx\n", t_nbody / t_hybrid);
  std::printf(
      "  paper: H1024 finished in 1.92 h and U1024 in 5.86 h end-to-end vs\n"
      "  TianNu's 52 h — 27x and 8.9x better time-to-solution at equivalent\n"
      "  effective resolution *and* zero sampling noise in the neutrino\n"
      "  sector.  At this scale the headline signal is the noise column:\n"
      "  the particle run's neutrino field carries Poisson noise the\n"
      "  Vlasov run simply does not have, at comparable wall time.\n");
  std::printf("  snapshots: tts_*.snap (I/O time included, as in the paper)\n");
  return 0;
}
