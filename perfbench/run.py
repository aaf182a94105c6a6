#!/usr/bin/env python3
"""End-to-end benchmark of the hybrid Vlasov / N-body solver.

Run from the repository root:

    python3 perfbench/run.py --workload hybrid_ranks4 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the solver library of this
checkout plus harness.cpp) into .bench_build/perfbench.  Each run executes
one workload in the harness, checks the outputs, and prints the host
context, a metric table and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
HARNESS = BUILD / "perfbench_harness"

JOBS = 5  # untraced jobs per run; setup_s is the median of their setups
MIN_STEPS = 12  # floor on the timed steps of one job
MASS_DRIFT_TOL = 1e-4  # largest |M_end - M_0| / M_0 a job may show
HARNESS_TIMEOUT_S = 170
# Bytes one KDK step moves per phase-space cell, computed from the array
# sizes: 9 directional sweeps (two 3-axis kicks, one 3-axis drift), each
# reading and writing every 4-byte cell once.
BYTES_PER_CELL_STEP = 9 * 2 * 4

# The workload catalogue; README.md gives the reason for each.  `step_s` is
# a nominal step time on a 4-vCPU host.  It only turns --seconds into a
# step count, so the work of a run is fixed by its arguments.
WORKLOADS = {
    "vlasov_serial": {
        "ranks": 1, "step_s": 0.29,
        "config": {"scenario": "vlasov_only", "nx": 16, "nu": 12,
                   "da_max": 0.002},
    },
    "hybrid_serial": {
        "ranks": 1, "step_s": 0.11,
        "config": {"scenario": "neutrino_box", "nx": 8, "nu": 10, "np": 16,
                   "da_max": 0.002},
    },
    "hybrid_ranks4": {
        "ranks": 4, "step_s": 0.41,
        "config": {"scenario": "neutrino_box", "nx": 16, "nu": 12, "np": 16,
                   "da_max": 0.002, "overlap": 1},
    },
}

# Replayed layers whose self times, with comm.recv_wait_s, close to the step.
LAYER_SPANS = ("vlasov.drift", "vlasov.kick", "vlasov.moments", "vlasov.cfl",
               "gravity.poisson", "gravity.tree_build", "gravity.tree_walk",
               "mesh.deposit", "mesh.gather", "nbody.kick_drift")
# Work counts and the final digest that every job of a run must repeat.
REPEATED = ("digest", "cells", "tree_p2p", "tree_nodes", "comm_bytes",
            "comm_msgs")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then bring the harness up to date."""
    tmp = BUILD / "tmp"  # compiler scratch stays inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    commands = []
    if not (BUILD / "CMakeCache.txt").exists():
        commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(BUILD), "--target",
                     "perfbench_harness", "-j", str(nproc())])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                sys.exit("\n".join(tail) +
                         f"\nperfbench: build failed; see {log_path}")


def run_harness(name, seed, seconds, trace):
    """Run one workload; returns (raw observations, host context)."""
    workload = WORKLOADS[name]
    cores = nproc()
    threads = max(1, cores // workload["ranks"])
    steps = max(MIN_STEPS,
                math.ceil(seconds / (JOBS * workload["step_s"]))) + 1
    config = dict(workload["config"], ranks=workload["ranks"])
    # The seed picks a periodic shift of the initial state (one of nx^3; 7919
    # is odd, so consecutive seeds never repeat before nx^3) and keeps the
    # committed configs' realization: a new realization per seed would move
    # mass_drift by cosmic variance alone.
    shift = seed * 7919 % config["nx"] ** 3
    args = [str(HARNESS)] + [f"{k}={v}" for k, v in config.items()]
    args += [f"bench_jobs={JOBS}", f"bench_steps={steps}",
             f"bench_shift={shift}", f"bench_trace={trace}"]
    # ranks x threads = nproc, set here and never inherited: thread counts
    # and kernel overrides in the caller's environment would change what is
    # measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("V6D_", "OMP_", "GOMP_", "KMP_"))}
    env["OMP_NUM_THREADS"] = str(threads)
    proc = subprocess.run(args, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(proc.stderr +
                 f"perfbench: harness exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    context = dict(raw["context"], workload=name, nproc=cores,
                   ranks=workload["ranks"], threads_per_rank=threads,
                   config=config, shift=shift, steps_per_job=steps,
                   jobs=2 if trace else JOBS)
    return raw, context


def mass_drift(job):
    m0, m1 = job["mass0"], job["mass_end"]
    if m0 is None or m1 is None or m0 == 0.0:
        return math.inf
    return abs(m1 - m0) / m0


def failed_jobs(jobs, steps):
    """Indices of the jobs that fail a check of their own outputs, or that
    disagree with the run's other jobs on work counts or final digest."""
    signatures = [tuple(job[key] for key in REPEATED) +
                  (len(job["step_end"]),) for job in jobs]
    reference = max(signatures, key=signatures.count)
    failed = []
    for i, job in enumerate(jobs):
        problems = []
        if len(job["step_end"]) != steps:
            problems.append(f"{len(job['step_end'])} steps, expected {steps}")
        if not job["finite"]:
            problems.append("f, particles or mass not finite")
        if not mass_drift(job) < MASS_DRIFT_TOL:
            problems.append(f"mass drift {mass_drift(job):.3g} is not "
                            f"below {MASS_DRIFT_TOL}")
        if signatures[i] != reference:
            problems.append("work counts or final digest differ from the "
                            "other jobs")
        for problem in problems:
            print(f"perfbench: job {i}: {problem}", file=sys.stderr)
        if problems:
            failed.append(i)
    return failed


def end_to_end(jobs, peak_rss_kib):
    """End-to-end metrics {name: (value, unit)} and the tail's context."""
    samples = [x for job in jobs for x in stats.step_samples(job)]
    percentile, tail = stats.tail_percentile(samples)
    metrics = {
        "setup_s": (stats.median([stats.setup_window(j) for j in jobs]), "s"),
        "step_s": (stats.median(samples), "s"),
        "step_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
        "mass_drift": (stats.median([mass_drift(j) for j in jobs]), "1"),
    }
    return metrics, {"step_tail_percentile": percentile,
                     "step_samples": len(samples)}


def wall_per_step(job):
    ends = job["step_end"]
    return (ends[-1] - ends[0]) / (len(ends) - 1)


def per_layer(untraced, traced, ic_spans):
    """Per-layer metrics {name: (value, unit)} of the traced job."""
    by_step = stats.self_time_by_step(traced["spans"])

    def layer(name):
        return stats.median([row.get(name, 0.0) for row in by_step.values()])

    def median_or_zero(values):
        return stats.median(values) if values else 0.0

    metrics = {name + "_s": (layer(name), "s") for name in LAYER_SPANS}
    ic = {span["name"]: span["t1"] - span["t0"] for span in ic_spans}
    metrics["cosmology.ic_nu_s"] = (ic["cosmology.ic_nu"], "s")
    metrics["cosmology.ic_cdm_s"] = (ic["cosmology.ic_cdm"], "s")
    metrics["parallel.shard_s"] = (traced["shard_s"], "s")

    sweep_s = metrics["vlasov.drift_s"][0] + metrics["vlasov.kick_s"][0]
    metrics["vlasov.cells"] = (traced["cells"], "count")
    metrics["vlasov.bytes_computed"] = (
        traced["cells"] * BYTES_PER_CELL_STEP, "B")
    metrics["vlasov.cell_updates_per_s"] = (
        traced["local_cells"] / sweep_s if sweep_s > 0 else 0.0, "1/s")

    passes = traced["replay_tree_passes"]
    p2p = traced["replay_tree_p2p"] / passes if passes else 0.0
    metrics["gravity.tree_p2p"] = (p2p, "count")
    metrics["gravity.tree_nodes"] = (
        traced["replay_tree_nodes"] / passes if passes else 0.0, "count")
    metrics["gravity.tree_interactions_per_s"] = (
        p2p / metrics["gravity.tree_walk_s"][0] if p2p else 0.0, "1/s")

    timed = len(traced["step_end"]) - 1
    metrics["comm.bytes_per_step"] = (traced["comm_bytes"] / timed, "B")
    metrics["comm.msgs_per_step"] = (traced["comm_msgs"] / timed, "count")
    metrics["comm.recv_wait_s"] = (median_or_zero(traced["recv_wait"]), "s")
    metrics["comm.exposed_wait_s"] = (
        median_or_zero(traced["exposed_wait"]), "s")

    step_s = stats.median(stats.step_samples(traced))
    closing = [metrics[name + "_s"][0] for name in LAYER_SPANS]
    closing.append(metrics["comm.recv_wait_s"][0])
    metrics["hybrid.unattributed_s"] = (
        stats.unattributed(step_s, closing), "s")
    metrics["bench.traced_step_s"] = (step_s, "s")
    metrics["bench.trace_overhead"] = (
        wall_per_step(traced) / wall_per_step(untraced) - 1.0, "1")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the hybrid solver.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build()
    raw, context = run_harness(args.workload, args.seed, args.seconds,
                               args.trace)
    steps = context["steps_per_job"]
    if args.trace:
        jobs = raw["jobs"] + [raw["traced"]]
        failed = failed_jobs(jobs, steps)
        metrics = per_layer(raw["jobs"][0], raw["traced"], raw["ic_spans"])
    else:
        jobs = raw["jobs"]
        failed = failed_jobs(jobs, steps)
        kept = [job for i, job in enumerate(jobs) if i not in failed] or jobs
        metrics, tail_context = end_to_end(kept, raw["peak_rss_kib"])
        context.update(tail_context)

    print(json.dumps({"context": context}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
