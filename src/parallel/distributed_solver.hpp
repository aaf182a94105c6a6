// The distributed solver is hybrid::HybridSolver built with its slicing
// constructor (src/hybrid/hybrid_solver.hpp).  This name remains only for
// perfbench/harness.cpp.
#pragma once

#include "hybrid/hybrid_solver.hpp"

namespace v6d::parallel {

using DistributedHybridSolver = hybrid::HybridSolver;

}  // namespace v6d::parallel
