// Test oracle: the whole-shell periodic ghost fill of a phase space.
//
// Copies every spatial ghost block — faces, edges and corners — from the
// periodic image of the interior.  The drift's serial filler
// (vlasov::periodic_halo_filler) copies only the swept axis' faces, the
// only ghosts a position sweep reads, so vlasov::drift_full must leave the
// same interior with either filler.
#pragma once

#include <cstring>

#include "vlasov/phase_space.hpp"

namespace v6d::test {

inline void fill_ghosts_whole_shell(vlasov::PhaseSpace& f) {
  const auto& d = f.dims();
  const int g = d.ghost;
  const auto wrap = [](int i, int n) { return ((i % n) + n) % n; };
  for (int ix = -g; ix < d.nx + g; ++ix)
    for (int iy = -g; iy < d.ny + g; ++iy)
      for (int iz = -g; iz < d.nz + g; ++iz) {
        const bool interior = ix >= 0 && ix < d.nx && iy >= 0 &&
                              iy < d.ny && iz >= 0 && iz < d.nz;
        if (interior) continue;
        std::memcpy(f.block(ix, iy, iz),
                    f.block(wrap(ix, d.nx), wrap(iy, d.ny), wrap(iz, d.nz)),
                    f.block_size() * sizeof(float));
      }
}

}  // namespace v6d::test
