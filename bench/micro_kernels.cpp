// Micro-benchmarks of the building blocks — the in-register transpose (the
// LAT primitive, §5.3 Fig. 3), the SL-MPP5 line kernel in its scalar /
// SIMD / LAT forms, the FFT — plus the headline pipeline measurement: one
// full set of six directional sweeps (fused velocity kick + position
// drift) through the production dispatch path versus the seed's per-axis
// scalar path.  The `fused_sweep_speedup` metric in BENCH_micro_kernels
// .json is the perf-trajectory number tracked across PRs; one
// `fused_sweep_speedup_<tier>` per sweep tier the host runs sits beside
// it (simd/dispatch.hpp).
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft3d.hpp"
#include "harness.hpp"
#include "mesh/grid.hpp"
#include "simd/dispatch.hpp"
#include "simd/transpose.hpp"
#include "vlasov/advect_kernels.hpp"
#include "vlasov/advect_vec_impl.hpp"
#include "vlasov/sweeps.hpp"

namespace {

using namespace v6d;
using vlasov::SweepKernel;

vlasov::PhaseSpace make_box(int nx, int nu) {
  vlasov::PhaseSpaceDims d;
  d.nx = d.ny = d.nz = nx;
  d.nux = d.nuy = d.nuz = nu;
  vlasov::PhaseSpaceGeometry g;
  g.dx = g.dy = g.dz = 1.0;
  g.umax = 1.0;
  g.dux = g.duy = g.duz = 2.0 / nu;
  vlasov::PhaseSpace f(d, g);
  for (int ix = 0; ix < nx; ++ix)
    for (int iy = 0; iy < nx; ++iy)
      for (int iz = 0; iz < nx; ++iz) {
        float* blk = f.block(ix, iy, iz);
        for (std::size_t v = 0; v < f.block_size(); ++v)
          blk[v] = 0.5f + 0.4f * static_cast<float>(
                              std::sin(0.1 * static_cast<double>(v + ix)));
      }
  return f;
}

/// One set of six directional sweeps: velocity kick (3 axes) + position
/// drift (3 periodic axes), mirroring kick_half + drift_full's structure.
/// `fused` selects the production path (advect_velocity_all + requested
/// kernel); otherwise the seed's per-axis passes run.
void six_sweeps(vlasov::PhaseSpace& f, const mesh::Grid3D<double>& accel,
                SweepKernel kernel, bool fused) {
  const double dt = 0.5;
  const double drift = 0.35 * f.geom().dx / f.geom().umax;
  if (fused) {
    vlasov::advect_velocity_all(f, accel, accel, accel, dt, kernel);
  } else {
    for (int axis = 0; axis < 3; ++axis)
      vlasov::advect_velocity_axis(f, axis, accel, dt, kernel);
  }
  for (int axis : {2, 1, 0})
    vlasov::advect_position_axis(f, axis, drift, kernel, vlasov::AxisFaces{});
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("micro_kernels", argc, argv);
  auto& opt = harness.options();
  harness.banner("Micro-kernels: transpose, SL-MPP5 lines, FFT, fused sweeps",
               "paper §5.3 Figs. 1-3 kernels; Table 1 pipeline");

  // --- LAT transpose primitive ---
  {
    constexpr int L = simd::kNativeFloatWidth;
    std::vector<float> src(L * 64), dst(L * 64);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<float>(i);
    const int reps = bench::scaled(200000, 20000);
    harness.time_phase(
        "transpose_tile", reps,
        [&] { simd::transpose_tile<float, L>(src.data(), 64, dst.data(), 64); },
        static_cast<double>(L) * L,
        static_cast<double>(L) * L * 2 * sizeof(float));
  }

  // --- SL-MPP5 line kernel, scalar periodic ---
  for (const int n : {64, 256, 1024}) {
    std::vector<float> f(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      f[static_cast<std::size_t>(i)] = static_cast<float>(
          std::exp(-0.01 * (i - n / 2.0) * (i - n / 2.0)));
    const int reps = bench::scaled(20000, 2000) * 256 / n;
    harness.time_phase(
        "sl_mpp5_line_" + std::to_string(n), reps,
        [&] { vlasov::advect_line_periodic(f.data(), n, 0.37,
                                           vlasov::Limiter::kMpp); },
        n, static_cast<double>(n) * 2 * sizeof(float));
  }

  // --- SL-MPP5 multi-lane SIMD lines ---
  const auto shift = vlasov::LineShift::uniform(0.37, vlasov::Limiter::kMpp);
  for (const int n : {64, 256}) {
    constexpr int L = simd::kSweepLanes;
    std::vector<float> f(static_cast<std::size_t>(n) * L);
    for (std::size_t i = 0; i < f.size(); ++i)
      f[i] = 0.5f + 0.3f * static_cast<float>(std::sin(0.05 * i));
    vlasov::AdvectWorkspace ws;
    const int reps = bench::scaled(20000, 2000) * 256 / n;
    harness.time_phase(
        "sl_mpp5_simd_lines_" + std::to_string(n), reps,
        [&] {
          vlasov::advect_lines_simd(f.data(), L, f.data(), L, n, L, shift,
                                    ws);
        },
        static_cast<double>(n) * L,
        static_cast<double>(n) * L * 2 * sizeof(float));
  }
  // The smooth sine above passes the limiter's quick-accept test in every
  // lane.  A rough positive state (0.05 plus uniform noise, like a real
  // phase-space block) takes the full Suresh-Huynh bounds in most lanes;
  // every rep advects the same input, so it stays rough.
  {
    constexpr int L = simd::kSweepLanes;
    const int n = 64;
    std::vector<float> rough(static_cast<std::size_t>(n) * L);
    std::vector<float> out(rough.size());
    Xoshiro256 rng(42);
    for (float& v : rough) v = static_cast<float>(0.05 + rng.next_double());
    vlasov::AdvectWorkspace ws;
    const int reps = bench::scaled(20000, 2000) * 256 / n;
    harness.time_phase(
        "sl_mpp5_simd_lines_rough_" + std::to_string(n), reps,
        [&] {
          vlasov::advect_lines_simd(rough.data(), L, out.data(), L, n, L,
                                    shift, ws);
        },
        static_cast<double>(n) * L,
        static_cast<double>(n) * L * 2 * sizeof(float));
  }

  // --- FFT ---
  // Every rep transforms the same input: repeated unnormalized transforms
  // would overflow to inf and time non-finite arithmetic.
  for (const int n : {16, 64, 128, 288, 97}) {
    fft::FftPlan plan(n);
    fft::FftPlan::Scratch scratch;
    std::vector<fft::cplx> in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      in[static_cast<std::size_t>(i)] = fft::cplx(std::sin(0.3 * i), 0.0);
    std::vector<fft::cplx> x = in;
    const int reps = bench::scaled(20000, 2000);
    harness.time_phase("fft1d_" + std::to_string(n), reps, [&] {
      std::copy(in.begin(), in.end(), x.begin());
      plan.forward(x.data(), scratch);
    });
  }
  // The PM mesh's forward 3-D transform: three batched axis passes over a
  // 16^3 field, threaded like the force pass runs them.
  {
    const int n = 16;
    const std::array<int, 3> shape{n, n, n};
    fft::FftPlan plan(n);
    std::vector<fft::cplx> in(static_cast<std::size_t>(n) * n * n);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = fft::cplx(std::sin(0.3 * static_cast<double>(i)), 0.0);
    std::vector<fft::cplx> x = in;
    const int reps = bench::scaled(2000, 200);
    harness.time_phase("fft3d_axes_16", reps, [&] {
      std::copy(in.begin(), in.end(), x.begin());
      for (const int axis : {2, 1, 0})
        fft::transform_axis(plan, x.data(), shape, axis, false);
    });
  }

  // --- headline: fused+dispatched sweep pipeline vs the seed scalar path ---
  {
    const int nx = opt.get_int("nx", bench::scaled(10, 6));
    const int nu = opt.get_int("nu", bench::scaled(12, 8));
    const int reps = opt.get_int("reps", 2);
    harness.context("sweep_nx", std::to_string(nx));
    harness.context("sweep_nu", std::to_string(nu));
    auto f = make_box(nx, nu);
    mesh::Grid3D<double> accel(nx, nx, nx);
    accel.fill(0.11);

    // Six sweeps update every phase-space cell once each.
    const double cells =
        static_cast<double>(f.dims().total_interior()) * 6.0;
    const double bytes = cells * 2 * sizeof(float);

    // The seed's scalar path, on the baseline tier it was built for.
    double t_scalar = 0.0;
    {
      const simd::ScopedSweepTier seed_tier(simd::SweepTier::kBaseline);
      t_scalar = harness.time_phase(
          "sweep_scalar_seed", reps,
          [&] { six_sweeps(f, accel, SweepKernel::kScalar, /*fused=*/false); },
          cells, bytes);
    }
    const double t_fused = harness.time_phase(
        "sweep_fused_auto", reps,
        [&] { six_sweeps(f, accel, SweepKernel::kAuto, /*fused=*/true); },
        cells, bytes);

    const double speedup = t_scalar / t_fused;
    harness.metric("fused_sweep_speedup", speedup, "x");
    std::printf(
        "  fused sweep pipeline (%s tier): %.3f ms vs scalar seed path "
        "%.3f ms (%.2fx)\n",
        simd::to_string(simd::sweep_tier()), t_fused * 1e3, t_scalar * 1e3,
        speedup);

    // The same pipeline pinned to each tier this host runs.
    for (const simd::SweepTier tier : simd::supported_tiers()) {
      const simd::ScopedSweepTier pin(tier);
      const std::string name = simd::to_string(tier);
      const double t_tier = harness.time_phase(
          "sweep_fused_auto_" + name, reps,
          [&] { six_sweeps(f, accel, SweepKernel::kAuto, /*fused=*/true); },
          cells, bytes);
      harness.metric("fused_sweep_speedup_" + name, t_scalar / t_tier, "x");
      std::printf("    %s tier: %.3f ms (%.2fx)\n", name.c_str(),
                  t_tier * 1e3, t_scalar / t_tier);
    }
  }
  return 0;
}
