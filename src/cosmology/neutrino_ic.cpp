#include "cosmology/neutrino_ic.hpp"

#include <cmath>
#include <vector>

#include "cosmology/gaussian_field.hpp"
#include "cosmology/zeldovich.hpp"
#include "mesh/deposit.hpp"

namespace v6d::cosmo {

void initialize_neutrino_phase_space(
    vlasov::PhaseSpace& f, const Params& params, double u_th,
    const mesh::Grid3D<double>& delta_nu, const mesh::Grid3D<double>* bulk_x,
    const mesh::Grid3D<double>* bulk_y, const mesh::Grid3D<double>* bulk_z,
    int x_offset, int y_offset, int z_offset) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  const double du3 = g.du3();

  // Spatial cells are independent and each keeps its own sum order, so the
  // fill gives the same bits at every thread count.
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<double> profile(f.block_size());
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(static)
#endif
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz) {
          const int gx = ix + x_offset, gy = iy + y_offset, gz = iz + z_offset;
          const double delta = delta_nu.at(gx, gy, gz);
          const double ubx = bulk_x ? bulk_x->at(gx, gy, gz) : 0.0;
          const double uby = bulk_y ? bulk_y->at(gx, gy, gz) : 0.0;
          const double ubz = bulk_z ? bulk_z->at(gx, gy, gz) : 0.0;

          // Evaluate the shifted FD profile, then renormalize discretely so
          // the 0th moment is exact on this velocity grid.
          double sum = 0.0;
          std::size_t v = 0;
          for (int a = 0; a < d.nux; ++a)
            for (int b = 0; b < d.nuy; ++b)
              for (int c = 0; c < d.nuz; ++c, ++v) {
                const double dux = g.ux(a) - ubx;
                const double duy = g.uy(b) - uby;
                const double duz = g.uz(c) - ubz;
                const double s =
                    std::sqrt(dux * dux + duy * duy + duz * duz);
                profile[v] = fd_density(s, u_th);
                sum += profile[v];
              }
          const double target = params.omega_nu * (1.0 + delta);
          const double scale = sum > 0.0 ? target / (sum * du3) : 0.0;
          float* block = f.block(ix, iy, iz);
          for (v = 0; v < f.block_size(); ++v)
            block[v] = static_cast<float>(profile[v] * scale);
        }
  }
}

NeutrinoFields neutrino_linear_fields(const PowerSpectrum& ps, double box,
                                      int grid,
                                      const NeutrinoIcOptions& options) {
  NeutrinoFields fields{mesh::Grid3D<double>(grid, grid, grid, 1),
                        mesh::Grid3D<double>(grid, grid, grid, 1),
                        mesh::Grid3D<double>(grid, grid, grid, 1),
                        mesh::Grid3D<double>(grid, grid, grid, 1)};
  const double a = options.a_init;
  GaussianField grf(grid, box, options.seed);
  mesh::Grid3D<double> psix(grid, grid, grid, 1), psiy(grid, grid, grid, 1),
      psiz(grid, grid, grid, 1);
  grf.realize_with_displacement(
      [&](double k) { return ps.neutrino(k, a); }, fields.delta, psix, psiy,
      psiz);
  // Linear bulk flow u = a^2 H f psi (same relation as Zel'dovich).
  const Background& bg = ps.background();
  const double vel_factor = a * a * bg.hubble(a) * bg.growth_rate(a);
  for (int i = 0; i < grid; ++i)
    for (int j = 0; j < grid; ++j)
      for (int k = 0; k < grid; ++k) {
        fields.bulk_x.at(i, j, k) = vel_factor * psix.at(i, j, k);
        fields.bulk_y.at(i, j, k) = vel_factor * psiy.at(i, j, k);
        fields.bulk_z.at(i, j, k) = vel_factor * psiz.at(i, j, k);
      }
  fields.delta.fill_ghosts_periodic();
  fields.bulk_x.fill_ghosts_periodic();
  fields.bulk_y.fill_ghosts_periodic();
  fields.bulk_z.fill_ghosts_periodic();
  return fields;
}

nbody::Particles sample_neutrino_particles(const PowerSpectrum& ps,
                                           double box, int particles_per_side,
                                           double u_th,
                                           const NeutrinoIcOptions& options) {
  // Zel'dovich flow from the nu-suppressed spectrum...
  const int np = particles_per_side;
  const int ng = np;
  const double a = options.a_init;
  mesh::Grid3D<double> delta(ng, ng, ng, 1), psix(ng, ng, ng, 1),
      psiy(ng, ng, ng, 1), psiz(ng, ng, ng, 1);
  GaussianField grf(ng, box, options.seed);
  grf.realize_with_displacement(
      [&](double k) { return ps.neutrino(k, a); }, delta, psix, psiy, psiz);
  psix.fill_ghosts_periodic();
  psiy.fill_ghosts_periodic();
  psiz.fill_ghosts_periodic();

  mesh::MeshPatch patch;
  patch.box = box;
  patch.n_global = ng;
  const Background& bg = ps.background();
  const double vel_factor = a * a * bg.hubble(a) * bg.growth_rate(a);
  const double spacing = box / np;

  nbody::Particles p(static_cast<std::size_t>(np) * np * np);
  const Params& params = ps.background().params();
  p.mass = params.omega_nu * box * box * box / p.size();

  // ...plus individually sampled thermal velocities.
  FermiDiracSampler sampler(u_th);
  Xoshiro256 rng(hash_mix(options.seed ^ 0x6e75ULL));
  std::size_t idx = 0;
  for (int i = 0; i < np; ++i)
    for (int j = 0; j < np; ++j)
      for (int k = 0; k < np; ++k, ++idx) {
        const double qx = (i + 0.5) * spacing;
        const double qy = (j + 0.5) * spacing;
        const double qz = (k + 0.5) * spacing;
        const double dx = mesh::interpolate(psix, patch, qx, qy, qz,
                                            mesh::Assignment::kCic);
        const double dy = mesh::interpolate(psiy, patch, qx, qy, qz,
                                            mesh::Assignment::kCic);
        const double dz = mesh::interpolate(psiz, patch, qx, qy, qz,
                                            mesh::Assignment::kCic);
        double tx, ty, tz;
        sampler.sample_velocity(rng, tx, ty, tz);
        p.x[idx] = qx + dx;
        p.y[idx] = qy + dy;
        p.z[idx] = qz + dz;
        p.ux[idx] = vel_factor * dx + tx;
        p.uy[idx] = vel_factor * dy + ty;
        p.uz[idx] = vel_factor * dz + tz;
        p.id[idx] = idx;
      }
  p.wrap_positions(box);
  return p;
}

}  // namespace v6d::cosmo
