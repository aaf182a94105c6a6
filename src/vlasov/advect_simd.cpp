#include <algorithm>
#include <cmath>
#include <cstring>

#include "vlasov/advect_kernels.hpp"

namespace v6d::vlasov {

LaneShift LaneShift::at(double xi, Limiter limiter) {
  LaneShift lane;
  GroupShape& shape = lane.shape;
  shape.s = static_cast<int>(std::floor(xi));
  const double theta = xi - shape.s;
  const FluxWeights fw = FluxWeights::compute(theta);
  const float alpha = mp_alpha_for(theta);
  const float values[kLaneFields] = {
      static_cast<float>(fw.w[0]),
      static_cast<float>(fw.w[1]),
      static_cast<float>(fw.w[2]),
      static_cast<float>(fw.w[3]),
      static_cast<float>(fw.w[4]),
      static_cast<float>(theta),
      theta > 1e-12 ? static_cast<float>(1.0 / theta) : 0.0f,
      alpha,
      alpha / 3.0f};
  std::copy_n(values, kLaneFields, lane.fields);
  shape.pure_shift = theta == 0.0;
  shape.limit = limiter != Limiter::kNone && theta > 1e-12;
  shape.max_ghost = required_ghost(xi);
  shape.limiter = limiter;
  return lane;
}

GroupShifts::GroupShifts(const std::function<double(std::ptrdiff_t)>& xi,
                         int groups, int lanes, Limiter limiter)
    : lanes_(lanes), entry_(static_cast<std::size_t>(groups)) {
  std::vector<double> group_xi(static_cast<std::size_t>(lanes));
  std::vector<LaneShift> group(static_cast<std::size_t>(lanes));
  for (int g = 0; g < groups; ++g) {
    for (int l = 0; l < lanes; ++l)
      group_xi[l] = xi(static_cast<std::ptrdiff_t>(g) * lanes + l);
    const int entries = static_cast<int>(shapes_.size());
    int e = 0;
    // Equal bits, not ==: +0 and -0 would give weights of other signs.
    while (e < entries &&
           std::memcmp(group_xi.data(), xi_.data() + std::ptrdiff_t{e} * lanes,
                       group_xi.size() * sizeof(double)) != 0)
      ++e;
    entry_[g] = e;
    if (e < entries) continue;

    xi_.insert(xi_.end(), group_xi.begin(), group_xi.end());
    fields_.resize(fields_.size() + std::size_t{kLaneFields} * lanes);
    upper_.resize(upper_.size() + lanes);
    float* fields = fields_.data() + std::ptrdiff_t{e} * kLaneFields * lanes;
    std::int32_t* upper = upper_.data() + std::ptrdiff_t{e} * lanes;
    for (int l = 0; l < lanes; ++l)
      group[l] = LaneShift::at(group_xi[l], limiter);
    const auto [lo, hi] = std::minmax_element(
        group.begin(), group.end(), [](const LaneShift& a, const LaneShift& b) {
          return a.shape.s < b.shape.s;
        });
    GroupShape shape;
    shape.s = lo->shape.s;
    shape.mixed = hi->shape.s != lo->shape.s;
    shape.pure_shift = true;
    shape.limiter = limiter;
    for (int l = 0; l < lanes; ++l) {
      const GroupShape& lane = group[l].shape;
      upper[l] = lane.s != shape.s ? -1 : 0;
      shape.pure_shift = shape.pure_shift && lane.pure_shift;
      shape.limit = shape.limit || lane.limit;
      shape.max_ghost = std::max(shape.max_ghost, lane.max_ghost);
      for (int k = 0; k < kLaneFields; ++k)
        fields[k * lanes + l] = group[l].fields[k];
    }
    // The blended stencil reads cells j-3 .. j+2 of j = i - s in every
    // lane.  Keep within the ghosts the lanes themselves need: a position
    // sweep has no more than that in its halo.
    const bool fits =
        !shape.mixed || shape.pure_shift ||
        std::max(shape.s + kStencilGhost + 1, 2 - shape.s) <= shape.max_ghost;
    if (hi->shape.s - lo->shape.s <= 1 && fits)
      shapes_.emplace_back(shape);
    else
      shapes_.emplace_back(std::nullopt);
  }
}

}  // namespace v6d::vlasov
