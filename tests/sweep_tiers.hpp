// Run a test body once on every sweep tier this host supports
// (simd/dispatch.hpp): each run is pinned through simd::ScopedSweepTier and
// failures inside it name the tier.  Every tier must give the baseline
// tier's bits, so a suite that runs its checks on each tier checks that.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "simd/dispatch.hpp"

namespace v6d::sweep_tiers {

template <class Body>
void on_every_tier(Body&& body) {
  for (const simd::SweepTier tier : simd::supported_tiers()) {
    SCOPED_TRACE(std::string("sweep tier ") + simd::to_string(tier));
    const simd::ScopedSweepTier pin(tier);
    body();
  }
}

}  // namespace v6d::sweep_tiers
