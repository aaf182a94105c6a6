#include "vlasov/phase_space.hpp"

#include <algorithm>

namespace v6d::vlasov {

PhaseSpace::PhaseSpace(const PhaseSpaceDims& dims,
                       const PhaseSpaceGeometry& geom)
    : dims_(dims), geom_(geom) {
  data_.assign(dims.total_interior(), 0.0f);
}

double PhaseSpace::total_mass() const {
  double sum = 0.0;
  const float* b = data_.data();
  for (std::size_t cell = 0; cell < dims_.spatial_cells(); ++cell) {
    double block_sum = 0.0;
    for (std::size_t v = 0; v < block_size(); ++v) block_sum += b[v];
    sum += block_sum;
    b += block_size();
  }
  return sum * geom_.du3() * geom_.dvol();
}

float PhaseSpace::min_interior() const {
  if (data_.empty()) return 0.0f;
  return *std::min_element(data_.begin(), data_.end());
}

void PhaseSpace::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace v6d::vlasov
