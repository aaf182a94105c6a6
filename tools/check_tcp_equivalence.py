#!/usr/bin/env python3
"""Prove the TCP transport reproduces the in-process runtime bit for bit.

Stdlib only (CI runs it without installing anything):

    python3 tools/check_tcp_equivalence.py path/to/v6d workdir \
        [--config configs/smoke.cfg] [--ranks 2] [--steps 3] [--resume-steps 5]

Drives the same tiny distributed scenario twice through the `v6d` CLI —
once as thread ranks in one process (`ranks=N`), once as N OS processes
over loopback TCP (`spawn=N`) — then asserts the runs are *equivalent*,
not merely close:

  * every per-rank phase-space checkpoint shard is byte-identical,
  * the particle payloads are byte-identical (a checkpoint holds no
    forces: both resumes recompute them from the state),
  * the telemetry trajectories agree exactly on every deterministic field
    (step, a, da, mass, mass_drift, cfl_shift, comm_bytes — timing and
    RSS fields are machine noise and are ignored),
  * both checkpoints resume (inproc resume vs spawned TCP resume) to
    byte-identical shards again.

Exit status 0 when the backends are indistinguishable, 1 otherwise.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

DETERMINISTIC_FIELDS = (
    "step", "a", "da", "mass", "mass_drift", "cfl_shift", "comm_bytes",
)


def run(cmd, label):
    print(f"[{label}] $ {' '.join(str(c) for c in cmd)}", flush=True)
    result = subprocess.run([str(c) for c in cmd],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(result.stdout)
        print(f"FAIL: {label} exited {result.returncode}")
        sys.exit(1)
    return result.stdout


def compare_files(a_dir, b_dir, names, label):
    ok = True
    for name in names:
        fa, fb = a_dir / name, b_dir / name
        if not fa.exists() or not fb.exists():
            print(f"FAIL: {label}: {name} missing "
                  f"(inproc={fa.exists()} tcp={fb.exists()})")
            ok = False
        elif fa.read_bytes() != fb.read_bytes():
            print(f"FAIL: {label}: {name} differs between backends")
            ok = False
        else:
            print(f"  ok: {label}: {name} byte-identical")
    return ok


def checkpoint_payload_names(ckpt_dir):
    """Every payload file in a checkpoint dir (meta holds run-local paths
    like checkpoint_dir/telemetry, so it is compared field-filtered
    elsewhere, not byte-compared)."""
    return sorted(p.name for p in ckpt_dir.iterdir() if p.name != "meta")


def compare_telemetry(a_path, b_path):
    rows_a = [json.loads(line) for line in a_path.read_text().splitlines()]
    rows_b = [json.loads(line) for line in b_path.read_text().splitlines()]
    if len(rows_a) != len(rows_b):
        print(f"FAIL: telemetry row counts differ: "
              f"{len(rows_a)} inproc vs {len(rows_b)} tcp")
        return False
    ok = True
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for field in DETERMINISTIC_FIELDS:
            if ra.get(field) != rb.get(field):
                print(f"FAIL: telemetry row {i} field '{field}': "
                      f"{ra.get(field)!r} != {rb.get(field)!r}")
                ok = False
    if ok:
        print(f"  ok: telemetry trajectories identical "
              f"({len(rows_a)} rows x {len(DETERMINISTIC_FIELDS)} fields)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("v6d", type=pathlib.Path, help="v6d CLI binary")
    parser.add_argument("workdir", type=pathlib.Path)
    parser.add_argument("--config", default=None,
                        help="config file or scenario name "
                             "(default: bundled tiny neutrino_box keys)")
    parser.add_argument("--ranks", type=int, default=2)
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--resume-steps", type=int, default=5)
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="extra key=value override passed to both runs "
                             "(e.g. --set nx=8 to make a tiny config "
                             "decomposable across the ranks)")
    args = parser.parse_args()

    work = args.workdir.resolve()
    if work.exists():
        shutil.rmtree(work)
    inp, tcp = work / "inproc", work / "tcp"
    inp.mkdir(parents=True)
    tcp.mkdir(parents=True)

    if args.config:
        target, scenario_keys = args.config, []
    else:
        target = "neutrino_box"
        scenario_keys = ["box=100", "nx=8", "nu=6", "np=8", "seed=9",
                         "a_final=0.3", "da_max=0.03"]
    common = scenario_keys + args.overrides + [f"max_steps={args.steps}",
                                               "checkpoint_every=0",
                                               "progress_every=0"]

    run([args.v6d, "run", target, *common, f"ranks={args.ranks}",
         f"checkpoint_dir={inp / 'ckpt'}", f"telemetry={inp / 't.jsonl'}"],
        "run/inproc")
    run([args.v6d, "run", target, *common, f"spawn={args.ranks}",
         f"checkpoint_dir={tcp / 'ckpt'}", f"telemetry={tcp / 't.jsonl'}"],
        "run/tcp")

    ok = compare_telemetry(inp / "t.jsonl", tcp / "t.jsonl")
    names = checkpoint_payload_names(inp / "ckpt")
    if names != checkpoint_payload_names(tcp / "ckpt"):
        print("FAIL: checkpoint payload sets differ: "
              f"{names} vs {checkpoint_payload_names(tcp / 'ckpt')}")
        ok = False
    else:
        ok = compare_files(inp / "ckpt", tcp / "ckpt", names, "run") and ok

    # Resume both checkpoints a few more steps: the inproc checkpoint on
    # thread ranks, the TCP checkpoint on freshly spawned processes.
    resume = [f"max_steps={args.resume_steps}", "progress_every=0"]
    run([args.v6d, "resume", inp / "ckpt", *resume], "resume/inproc")
    run([args.v6d, "resume", tcp / "ckpt", *resume, f"spawn={args.ranks}"],
        "resume/tcp")

    names = checkpoint_payload_names(inp / "ckpt")
    if names != checkpoint_payload_names(tcp / "ckpt"):
        print("FAIL: resumed payload sets differ: "
              f"{names} vs {checkpoint_payload_names(tcp / 'ckpt')}")
        ok = False
    else:
        ok = compare_files(inp / "ckpt", tcp / "ckpt", names, "resume") and ok

    if not ok:
        print("TCP/inproc equivalence check FAILED")
        return 1
    print("TCP/inproc equivalence check passed: backends byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
