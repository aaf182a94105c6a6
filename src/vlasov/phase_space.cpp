#include "vlasov/phase_space.hpp"

#include <algorithm>

namespace v6d::vlasov {

PhaseSpace::PhaseSpace(const PhaseSpaceDims& dims,
                       const PhaseSpaceGeometry& geom)
    : dims_(dims), geom_(geom) {
  const int g = dims.ghost;
  const std::size_t blocks = std::size_t(dims.nx + 2 * g) *
                             (dims.ny + 2 * g) * (dims.nz + 2 * g);
  data_.assign(blocks * dims.velocity_cells(), 0.0f);
}

double PhaseSpace::total_mass() const {
  double sum = 0.0;
  for (int ix = 0; ix < dims_.nx; ++ix)
    for (int iy = 0; iy < dims_.ny; ++iy)
      for (int iz = 0; iz < dims_.nz; ++iz) {
        const float* b = block(ix, iy, iz);
        double cell = 0.0;
        for (std::size_t v = 0; v < block_size(); ++v) cell += b[v];
        sum += cell;
      }
  return sum * geom_.du3() * geom_.dvol();
}

float PhaseSpace::min_interior() const {
  float m = 0.0f;
  bool first = true;
  for (int ix = 0; ix < dims_.nx; ++ix)
    for (int iy = 0; iy < dims_.ny; ++iy)
      for (int iz = 0; iz < dims_.nz; ++iz) {
        const float* b = block(ix, iy, iz);
        for (std::size_t v = 0; v < block_size(); ++v) {
          if (first || b[v] < m) {
            m = b[v];
            first = false;
          }
        }
      }
  return m;
}

void PhaseSpace::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace v6d::vlasov
