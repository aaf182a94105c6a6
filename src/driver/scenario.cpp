#include "driver/scenario.hpp"

#include <cmath>
#include <stdexcept>

#include "cosmology/neutrino_ic.hpp"
#include "cosmology/zeldovich.hpp"

namespace v6d::driver {

namespace {

hybrid::HybridOptions hybrid_options(const SimulationConfig& cfg) {
  hybrid::HybridOptions opt;
  opt.pm_grid = cfg.nx;
  opt.treepm.theta = cfg.theta;
  opt.treepm.eps_cells = cfg.eps_cells;
  opt.cfl = cfg.cfl;
  opt.enable_tree = cfg.enable_tree;
  return opt;
}

/// Neutrino phase space at the configured shape; ICs are the linear
/// fields of the same realization as the CDM (shared seed) unless the
/// restart path asked for an empty container.
vlasov::PhaseSpace make_neutrino_phase_space(const SimulationConfig& cfg,
                                             const cosmo::Params& params,
                                             const cosmo::PowerSpectrum& ps,
                                             bool with_ics) {
  const double u_th =
      cosmo::neutrino_thermal_velocity(params.m_nu_total_ev / 3.0);
  cosmo::NeutrinoIcOptions nopt;
  nopt.a_init = cfg.a_init;
  nopt.seed = cfg.seed;

  vlasov::PhaseSpaceDims dims;
  dims.nx = dims.ny = dims.nz = cfg.nx;
  dims.nux = dims.nuy = dims.nuz = cfg.nu;
  vlasov::PhaseSpaceGeometry geom;
  geom.dx = geom.dy = geom.dz = cfg.box / cfg.nx;
  geom.umax = nopt.umax_over_uth * u_th;
  geom.dux = geom.duy = geom.duz = 2.0 * geom.umax / cfg.nu;
  vlasov::PhaseSpace f(dims, geom);
  if (with_ics) {
    auto fields = cosmo::neutrino_linear_fields(ps, cfg.box, cfg.nx, nopt);
    cosmo::initialize_neutrino_phase_space(f, params, u_th, fields.delta,
                                           &fields.bulk_x, &fields.bulk_y,
                                           &fields.bulk_z);
  }
  return f;
}

/// The shared cosmological builder: neutrino_box and its degenerate
/// species subsets (cdm_only / cosmic_web / vlasov_only) differ only in
/// defaults and in which species the config enables.
std::unique_ptr<hybrid::HybridSolver> build_cosmological(
    const SimulationConfig& cfg, bool with_ics) {
  const cosmo::Params params =
      cosmo::Params::planck2015(cfg.has_neutrinos() ? cfg.m_nu_ev : 0.0);
  const cosmo::PowerSpectrum ps(params);
  const cosmo::Background bg(params);

  vlasov::PhaseSpace f;
  if (cfg.has_neutrinos())
    f = make_neutrino_phase_space(cfg, params, ps, with_ics);

  nbody::Particles cdm;
  if (cfg.has_particles() && with_ics) {
    cosmo::ZeldovichOptions zopt;
    zopt.particles_per_side = cfg.np;
    zopt.a_init = cfg.a_init;
    zopt.seed = cfg.seed;
    cdm = cosmo::zeldovich_ics(ps, cfg.box, zopt).particles;
  }

  return std::make_unique<hybrid::HybridSolver>(
      std::move(f), std::move(cdm), cfg.box, bg, hybrid_options(cfg));
}

/// Counter-streaming self-gravitating beams along x on the Vlasov grid, in
/// the comoving units of the classic two-stream setup (§8 of the paper
/// notes the solver applies to kinetic problems directly).  With the mean
/// density pinned to Omega_m the beams are Jeans-stable at the defaults:
/// the seeded k = 1 mode decays by 0.7% from a = 1 to 1.3.
/// examples/two_stream maps the unstable static problem onto the solver.
std::unique_ptr<hybrid::HybridSolver> build_two_stream(
    const SimulationConfig& cfg, bool with_ics) {
  const cosmo::Params params = cosmo::Params::planck2015(0.0);
  const cosmo::Background bg(params);

  vlasov::PhaseSpaceDims dims;
  dims.nx = cfg.nx;
  dims.ny = dims.nz = 2;  // quasi-1D: dynamics along x only
  dims.nux = cfg.nu;
  dims.nuy = dims.nuz = 4;
  vlasov::PhaseSpaceGeometry geom;
  geom.dx = cfg.box / cfg.nx;
  geom.dy = geom.dz = cfg.box / 2;
  geom.umax = cfg.u_beam + 6.0 * cfg.beam_sigma;
  geom.dux = 2.0 * geom.umax / cfg.nu;
  geom.duy = geom.duz = 2.0 * geom.umax / 4;
  vlasov::PhaseSpace f(dims, geom);

  if (with_ics) {
    const double two_sigma2 = 2.0 * cfg.beam_sigma * cfg.beam_sigma;
    for (int ix = 0; ix < dims.nx; ++ix)
      for (int iy = 0; iy < dims.ny; ++iy)
        for (int iz = 0; iz < dims.nz; ++iz) {
          const double n =
              1.0 + cfg.perturb_amp *
                        std::cos(2.0 * M_PI * geom.x(ix) / cfg.box);
          float* blk = f.block(ix, iy, iz);
          std::size_t v = 0;
          for (int a = 0; a < dims.nux; ++a)
            for (int b = 0; b < dims.nuy; ++b)
              for (int c = 0; c < dims.nuz; ++c, ++v) {
                const double up = geom.ux(a) - cfg.u_beam;
                const double um = geom.ux(a) + cfg.u_beam;
                const double perp =
                    geom.uy(b) * geom.uy(b) + geom.uz(c) * geom.uz(c);
                const double beams = std::exp(-up * up / two_sigma2) +
                                     std::exp(-um * um / two_sigma2);
                blk[v] = static_cast<float>(n * beams *
                                            std::exp(-perp / two_sigma2));
              }
        }
    // Normalize the mean comoving density to Omega_m so the solver's
    // (Omega - mean) Poisson source carries the usual units.
    const double volume = (dims.nx * geom.dx) * (dims.ny * geom.dy) *
                          (dims.nz * geom.dz);
    const float scale = static_cast<float>(params.omega_m * volume /
                                           f.total_mass());
    for (int ix = 0; ix < dims.nx; ++ix)
      for (int iy = 0; iy < dims.ny; ++iy)
        for (int iz = 0; iz < dims.nz; ++iz) {
          float* blk = f.block(ix, iy, iz);
          for (std::size_t v = 0; v < f.block_size(); ++v) blk[v] *= scale;
        }
  }

  return std::make_unique<hybrid::HybridSolver>(std::move(f),
                                                nbody::Particles(), cfg.box,
                                                bg, hybrid_options(cfg));
}

void defaults_neutrino_box(SimulationConfig&) {}  // == struct defaults

void defaults_cdm_only(SimulationConfig& cfg) {
  cfg.box = 100.0;
  cfg.m_nu_ev = 0.0;
  cfg.nu = 0;
  cfg.nx = 16;  // PM mesh
  cfg.np = 16;
}

void defaults_cosmic_web(SimulationConfig& cfg) {
  cfg.box = 150.0;
  cfg.m_nu_ev = 0.0;
  cfg.nu = 0;
  cfg.nx = 20;
  cfg.np = 20;
  cfg.a_init = 0.1;
  cfg.eps_cells = 0.15;
  cfg.seed = 31;
}

void defaults_vlasov_only(SimulationConfig& cfg) {
  cfg.np = 0;
}

void defaults_two_stream(SimulationConfig& cfg) {
  cfg.box = 10.0;
  cfg.m_nu_ev = 0.0;
  cfg.np = 0;
  cfg.nx = 16;
  cfg.nu = 16;
  cfg.a_init = 1.0;
  cfg.a_final = 1.3;
  cfg.da_max = 0.02;
}

const std::vector<Scenario> kScenarios = {
    {"neutrino_box",
     "CDM particles + massive-neutrino Vlasov fluid (paper production run)",
     defaults_neutrino_box, build_cosmological},
    {"cdm_only", "TreePM CDM particles only, no phase space",
     defaults_cdm_only, build_cosmological},
    {"cosmic_web", "CDM-only web formation in the larger example box",
     defaults_cosmic_web, build_cosmological},
    {"vlasov_only", "massive-neutrino Vlasov fluid only, no particles",
     defaults_vlasov_only, build_cosmological},
    {"two_stream",
     "counter-streaming self-gravitating beams (Jeans-stable at defaults)",
     defaults_two_stream, build_two_stream},
};

}  // namespace

const std::vector<Scenario>& scenarios() { return kScenarios; }

const Scenario* find_scenario(const std::string& name) {
  for (const auto& scenario : kScenarios)
    if (name == scenario.name) return &scenario;
  return nullptr;
}

SimulationConfig make_config(const Options& overrides,
                             const std::string& scenario_name) {
  SimulationConfig cfg;
  const std::string name = overrides.get(
      "scenario", scenario_name.empty() ? cfg.scenario : scenario_name);
  const Scenario* scenario = find_scenario(name);
  if (!scenario)
    throw std::invalid_argument("unknown scenario: " + name);
  cfg.scenario = name;
  scenario->defaults(cfg);
  cfg.apply(overrides);
  return cfg;
}

}  // namespace v6d::driver
