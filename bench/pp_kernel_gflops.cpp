// §5.1.2 numbers: the Phantom-GRAPE-style particle-particle kernel.
//
// Paper: 1.2e9 interactions/s with SVE vs 2.4e7 without, per A64FX core
// (a ~50x contrast).  Measured here: interactions/s of the scalar
// double-precision path and the single-precision SIMD path on the host
// (with and without the cutoff polynomial); the expected shape is a large
// SIMD win, recorded as `pp_simd_speedup` in the JSON report.  The SIMD
// kernel is then timed once per sweep tier the host runs (16 source lanes
// per group on AVX-512, 4 on the baseline; simd/dispatch.hpp), recorded
// as `pp_interactions_per_s_<tier>` and `pp_simd_speedup_<tier>`.
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gravity/pp_kernel.hpp"
#include "harness.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace v6d::gravity;

struct Workload {
  std::vector<double> sx, sy, sz, sm, tx, ty, tz;
  std::vector<float> fsx, fsy, fsz, fsm, ftx, fty, ftz;

  Workload(std::size_t nt, std::size_t ns) {
    v6d::Xoshiro256 rng(7);
    for (std::size_t i = 0; i < ns; ++i) {
      sx.push_back(rng.next_double());
      sy.push_back(rng.next_double());
      sz.push_back(rng.next_double());
      sm.push_back(1.0);
    }
    for (std::size_t i = 0; i < nt; ++i) {
      tx.push_back(rng.next_double());
      ty.push_back(rng.next_double());
      tz.push_back(rng.next_double());
    }
    fsx.assign(sx.begin(), sx.end());
    fsy.assign(sy.begin(), sy.end());
    fsz.assign(sz.begin(), sz.end());
    fsm.assign(sm.begin(), sm.end());
    ftx.assign(tx.begin(), tx.end());
    fty.assign(ty.begin(), ty.end());
    ftz.assign(tz.begin(), tz.end());
  }
};

PpKernelParams split_params() {
  PpKernelParams p;
  p.eps = 0.01;
  p.rs = 0.08;
  p.rcut = 4.5 * p.rs;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using v6d::bench::Harness;
  using v6d::bench::scaled;
  Harness harness("pp_kernel_gflops", argc, argv);
  harness.banner("PP kernel - interactions/s, scalar vs SIMD",
               "paper §5.1.2 (Phantom-GRAPE-style kernel on A64FX)");

  const std::size_t nt = 64;
  const int reps = harness.options().get_int("reps", scaled(400, 50));
  double t_scalar_8k = 0.0, t_simd_8k = 0.0;

  for (const std::size_t ns : {std::size_t{1024}, std::size_t{8192}}) {
    Workload w(nt, ns);
    const PpKernelParams params = split_params();
    const CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
    const double interactions = static_cast<double>(nt * ns);
    const std::string suffix = std::to_string(ns);

    std::vector<double> ax(nt), ay(nt), az(nt);
    const double t_scalar = harness.time_phase(
        "pp_scalar_" + suffix, reps,
        [&] {
          pp_accumulate_scalar(w.tx.data(), w.ty.data(), w.tz.data(), nt,
                               w.sx.data(), w.sy.data(), w.sz.data(),
                               w.sm.data(), ns, params, ax.data(), ay.data(),
                               az.data());
        },
        interactions);

    std::vector<float> fax(nt), fay(nt), faz(nt);
    const double t_simd = harness.time_phase(
        "pp_simd_" + suffix, reps,
        [&] {
          pp_accumulate_simd(w.ftx.data(), w.fty.data(), w.ftz.data(), nt,
                             w.fsx.data(), w.fsy.data(), w.fsz.data(),
                             w.fsm.data(), ns, params, poly, fax.data(),
                             fay.data(), faz.data());
        },
        interactions);

    if (ns == 8192) {
      t_scalar_8k = t_scalar;
      t_simd_8k = t_simd;
    }
  }

  // No-cutoff (pure 1/r^2) variant isolates the cutoff-polynomial cost.
  {
    const std::size_t ns = 8192;
    Workload w(nt, ns);
    PpKernelParams params;
    params.eps = 0.01;
    const CutoffPoly poly(3.0, 14);
    std::vector<float> fax(nt), fay(nt), faz(nt);
    harness.time_phase(
        "pp_simd_nocutoff_8192", reps,
        [&] {
          pp_accumulate_simd(w.ftx.data(), w.fty.data(), w.ftz.data(), nt,
                             w.fsx.data(), w.fsy.data(), w.fsz.data(),
                             w.fsm.data(), ns, params, poly, fax.data(),
                             fay.data(), faz.data());
        },
        static_cast<double>(nt * ns));
  }

  const double speedup = t_simd_8k > 0.0 ? t_scalar_8k / t_simd_8k : 0.0;
  harness.metric("pp_simd_speedup", speedup, "x");
  std::printf("  SIMD speedup at 8192 sources (%s tier): %.2fx\n",
              v6d::simd::to_string(v6d::simd::sweep_tier()), speedup);

  // The SIMD kernel pinned to each tier; every (target, source) pair of
  // the call counts as an interaction, a skipped group's included.
  {
    const std::size_t ns = 8192;
    Workload w(nt, ns);
    const PpKernelParams params = split_params();
    const CutoffPoly poly(params.rcut / (2.0 * params.rs), 14);
    const double interactions = static_cast<double>(nt * ns);
    std::vector<float> fax(nt), fay(nt), faz(nt);
    for (const v6d::simd::SweepTier tier : v6d::simd::supported_tiers()) {
      const v6d::simd::ScopedSweepTier pin(tier);
      const std::string name = v6d::simd::to_string(tier);
      harness.context("pp_lanes_" + name,
                      std::to_string(v6d::simd::sweep_lanes(tier)));
      const double t_tier = harness.time_phase(
          "pp_simd_8192_" + name, reps,
          [&] {
            pp_accumulate_simd(w.ftx.data(), w.fty.data(), w.ftz.data(), nt,
                               w.fsx.data(), w.fsy.data(), w.fsz.data(),
                               w.fsm.data(), ns, params, poly, fax.data(),
                               fay.data(), faz.data());
          },
          interactions);
      const double rate = t_tier > 0.0 ? interactions / t_tier : 0.0;
      const double tier_speedup = t_tier > 0.0 ? t_scalar_8k / t_tier : 0.0;
      harness.metric("pp_interactions_per_s_" + name, rate, "1/s");
      harness.metric("pp_simd_speedup_" + name, tier_speedup, "x");
      std::printf("    %s tier (%d lanes): %.3g interactions/s, %.2fx\n",
                  name.c_str(), v6d::simd::sweep_lanes(tier), rate,
                  tier_speedup);
    }
  }
  return 0;
}
