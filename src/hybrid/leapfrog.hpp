// The step both solvers take: paper Eq. (5)'s kick-drift-kick with the
// trailing half-kick owed to the next step.
//
// A kick translates every velocity by the cached accelerations times a
// kick factor.  The trailing half-kick of one step, K(a_mid, a1), and the
// leading one of the next, K(a1, a_mid'), both use the forces computed at
// a1, so they compose into one kick by their sum: the leapfrog form of
// KDK, one velocity pass per step instead of two.  Between steps the
// velocities are then behind the positions by the owed factor K(a_mid, a1);
// settle_owed_kick applies it when velocities are read or a run ends.
// Mass and density do not depend on it.
//
// HybridSolver keeps the owed factor in its step-boundary force cache
// (StepForces::owed_kick).  Checkpoints, the slicing constructor and
// gather_into carry the factor and its scale factor but not the forces,
// so a resumed or re-sliced solver starts without fresh forces: its first
// step computes them at a0 (the `fresh` branch below), and its
// synchronize() computes them before it settles the owed kick.
// NBodySolver keeps its own next to its accelerations.
#pragma once

#include "cosmology/background.hpp"

namespace v6d::hybrid {

/// One step from a0 to a1: `forces(a0)` first when no cached forces exist
/// (`fresh` false), then `kick(owed + K(a0, a_mid))`, `drift(D(a0, a1))`,
/// `forces(a1)`, and `owed` becomes K(a_mid, a1), with a_mid the mean of
/// a0 and a1.  `kick(k)` translates every velocity by k times the cached
/// accelerations, `drift(d)` every position by d times its velocity, and
/// `forces(a)` refreshes the cache from the current positions.  A first
/// step (owed 0) kicks by exactly K(a0, a_mid).
template <class Kick, class Drift, class Forces>
void leapfrog_step(const cosmo::Background& background, double a0, double a1,
                   bool fresh, double& owed, Kick&& kick, Drift&& drift,
                   Forces&& forces) {
  const double a_mid = 0.5 * (a0 + a1);
  if (!fresh) forces(a0);
  kick(owed + background.kick_factor(a0, a_mid));
  drift(background.drift_factor(a0, a1));
  forces(a1);
  owed = background.kick_factor(a_mid, a1);
}

/// Apply the owed kick and zero it: the velocities are then synchronized
/// with the positions.  A no-op when nothing is owed (a fresh or already
/// synchronized solver).
template <class Kick>
void settle_owed_kick(double& owed, Kick&& kick) {
  if (owed == 0.0) return;
  kick(owed);
  owed = 0.0;
}

}  // namespace v6d::hybrid
