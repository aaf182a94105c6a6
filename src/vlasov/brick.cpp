#include "vlasov/brick.hpp"

#include <algorithm>
#include <cmath>

namespace v6d::vlasov {

PhaseSpace extract_brick(const PhaseSpace& global, std::array<int, 3> offset,
                         std::array<int, 3> extent) {
  PhaseSpaceDims dims = global.dims();
  dims.nx = extent[0];
  dims.ny = extent[1];
  dims.nz = extent[2];
  PhaseSpaceGeometry geom = global.geom();
  geom.x0 += offset[0] * geom.dx;
  geom.y0 += offset[1] * geom.dy;
  geom.z0 += offset[2] * geom.dz;
  PhaseSpace brick(dims, geom);
  // A z run of blocks is contiguous in both layouts.
  const std::size_t run = std::size_t(dims.nz) * brick.block_size();
  for (int i = 0; i < dims.nx; ++i)
    for (int j = 0; j < dims.ny; ++j)
      std::copy_n(global.block(offset[0] + i, offset[1] + j, offset[2]), run,
                  brick.block(i, j, 0));
  return brick;
}

bool BrickPlacement::place(const BrickView& brick, std::string* error) {
  const auto refuse = [&](const char* why) {
    if (error) *error = why;
    return false;
  };
  const auto& td = target_.dims();
  const auto& tg = target_.geom();
  const auto& bd = brick.dims;
  const auto& bg = brick.geom;
  if (bd.nux != td.nux || bd.nuy != td.nuy || bd.nuz != td.nuz ||
      bg.umax != tg.umax || bg.dux != tg.dux || bg.duy != tg.duy ||
      bg.duz != tg.duz)
    return refuse("does not fit the grid: another velocity grid");
  const double shift[3] = {bg.x0 - tg.x0, bg.y0 - tg.y0, bg.z0 - tg.z0};
  const double cell[3] = {tg.dx, tg.dy, tg.dz};
  const double brick_cell[3] = {bg.dx, bg.dy, bg.dz};
  const int n[3] = {td.nx, td.ny, td.nz};
  std::array<int, 6> box = {0, 0, 0, bd.nx, bd.ny, bd.nz};
  for (int a = 0; a < 3; ++a) {
    if (brick_cell[a] != cell[a])
      return refuse("does not fit the grid: other cell sizes");
    const double corner = shift[a] / cell[a];
    if (!(corner > -0.5 && corner < n[a]))  // NaN is refused too
      return refuse("does not fit the grid: it lies outside");
    box[a] = static_cast<int>(std::lround(corner));
    if (std::abs(corner - box[a]) > 1e-6)
      return refuse("does not fit the grid: its origin is off a cell corner");
    if (box[a + 3] < 1 || box[a + 3] > n[a] - box[a])
      return refuse("does not fit the grid: it lies outside");
  }
  const auto overlaps = [&](const std::array<int, 6>& other) {
    for (int a = 0; a < 3; ++a)
      if (box[a] >= other[a] + other[a + 3] || other[a] >= box[a] + box[a + 3])
        return false;
    return true;
  };
  if (std::any_of(placed_.begin(), placed_.end(), overlaps))
    return refuse("overlaps a brick already placed");
  placed_.push_back(box);
  cells_ += bd.spatial_cells();
  const std::size_t run = std::size_t(bd.nz) * target_.block_size();
  const float* from = brick.blocks;
  for (int i = 0; i < bd.nx; ++i)
    for (int j = 0; j < bd.ny; ++j, from += run)
      std::copy_n(from, run, target_.block(box[0] + i, box[1] + j, box[2]));
  return true;
}

bool BrickPlacement::complete(std::string* error) const {
  // Placed bricks lie inside the grid and never overlap, so they cover it
  // once they hold as many cells.
  if (cells_ == target_.dims().spatial_cells()) return true;
  if (error) *error = "do not cover the grid";
  return false;
}

}  // namespace v6d::vlasov
