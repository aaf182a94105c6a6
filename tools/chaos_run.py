#!/usr/bin/env python3
"""Chaos-test the supervised checkpoint-restart loop.

Stdlib only (CI runs it without installing anything):

    python3 tools/chaos_run.py path/to/v6d workdir \
        [--ranks 4] [--kills 2] [--steps 200] [--seed 7] [--lost-host]

Default (kill) mode proves crash recovery end to end:

  1. runs an uninterrupted reference world (`spawn=N`) to a final
     checkpoint,
  2. runs the same scenario under `v6d supervise` and SIGKILLs a worker
     `--kills` times, once per round: a round is killed as soon as it has
     committed a checkpoint a seeded offset of steps past the one it
     resumed from (read from the meta's `step`), so every kill lands after
     real progress however fast the host is; victim and offset are seeded
     and printed,
  3. asserts the supervised run still exits 0, restarted at least once
     per landed kill, and its final checkpoint payloads are
     **byte-identical** to the reference — recovery is invisible in the
     physics.

`--lost-host` mode proves graceful degradation: the same rank is killed
in every round as soon as the round's world has formed and taken its
first step (the lead's first telemetry row), long before it commits a
checkpoint (a permanently dead host), so the supervisor sees repeated
rounds with no checkpoint progress, shrinks the world by one, and the
run completes on the smaller topology.  Asserts exit 0, a shrink event,
and a final world of N-1 (no bit-identity claim — the decomposition
changed, and a particle run would step on that decomposition's forces).

Exit status 0 when every assertion holds, 1 otherwise.  A supervised run
that outlives --timeout is killed and counted as a failure: no failure
path may hang.
"""

import argparse
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import time

PID_LINE = re.compile(r"supervise: rank (\d+) pid (\d+) \(round (\d+)\)")
SHRINK_LINE = re.compile(r"supervise: shrinking world (\d+) -> (\d+)")

SCENARIO_KEYS = [
    "nu=6", "seed=9", "a_final=0.5", "da_max=0.001", "progress_every=0",
]


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


def checkpoint_payload_names(ckpt_dir):
    return sorted(p.name for p in ckpt_dir.iterdir() if p.name != "meta")


def compare_checkpoints(ref_dir, chaos_dir):
    ref_names = checkpoint_payload_names(ref_dir)
    chaos_names = checkpoint_payload_names(chaos_dir)
    if ref_names != chaos_names:
        print(f"FAIL: payload sets differ: {ref_names} vs {chaos_names}")
        return False
    ok = True
    for name in ref_names:
        if (ref_dir / name).read_bytes() != (chaos_dir / name).read_bytes():
            print(f"FAIL: {name} differs from the uninterrupted reference")
            ok = False
        else:
            print(f"  ok: {name} byte-identical to reference")
    return ok


def meta_step(ckpt_dir):
    """The step of the checkpoint committed in `ckpt_dir`, -1 if none.
    The meta is published by rename, so a read sees one whole meta."""
    try:
        text = (ckpt_dir / "meta").read_text(errors="replace")
    except OSError:
        return -1
    for line in text.splitlines():
        if line.startswith("step="):
            try:
                return int(line[len("step="):])
            except ValueError:
                return -1
    return -1


def nonempty(path):
    try:
        return path.stat().st_size > 0
    except OSError:
        return False


def wait_until(sup, ready, timeout):
    """Poll `ready()` until it returns a truthy value and return that;
    None when the supervised run exits first or `timeout` passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and sup.proc.poll() is None:
        value = ready()
        if value:
            return value
        time.sleep(0.002)
    return None


def read_done_event(log_path):
    for line in log_path.read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "done":
            return event
    return None


class Supervised:
    """A `v6d supervise` child whose stdout we scan for pid lines."""

    def __init__(self, cmd, label):
        print(f"[{label}] $ {' '.join(str(c) for c in cmd)}", flush=True)
        self.proc = subprocess.Popen([str(c) for c in cmd],
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.lines = []

    def next_round_pids(self, world):
        """Block until the next full round's pid lines appear; returns
        {rank: pid} or None when the child exits first."""
        pids, round_no = {}, None
        for line in self.proc.stdout:
            self.lines.append(line)
            match = PID_LINE.search(line)
            if not match:
                continue
            rank, pid, rnd = (int(g) for g in match.groups())
            if round_no is None:
                round_no = rnd
            if rnd != round_no:  # stale line from a round we skipped
                pids, round_no = {}, rnd
            pids[rank] = pid
            if len(pids) == world:
                return round_no, pids
        return None

    def finish(self, timeout):
        try:
            rest, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
            self.lines.append(rest or "")
            print("".join(self.lines))
            print(f"FAIL: supervised run still alive after {timeout}s — "
                  "a failure path hung")
            sys.exit(1)
        self.lines.append(rest or "")
        return self.proc.returncode, "".join(self.lines)


def supervise_cmd(v6d, workdir, common, ranks, extra):
    return [v6d, "supervise", "vlasov_only", *common, f"spawn={ranks}",
            "restart=on-failure", f"checkpoint_dir={workdir / 'ckpt'}",
            f"supervise_log={workdir / 'supervise.jsonl'}",
            "transport_timeout=5", *extra]


def kill_mode(args, v6d, work, common):
    ref = work / "ref"
    ref.mkdir(parents=True)
    run([v6d, "run", "vlasov_only", *common, f"spawn={args.ranks}",
         f"checkpoint_dir={ref / 'ckpt'}"], "reference")

    chaos = work / "chaos"
    chaos.mkdir(parents=True)
    rng = random.Random(args.seed)
    sup = Supervised(
        supervise_cmd(v6d, chaos, common, args.ranks,
                      [f"max_restarts={args.kills + 4}", "shrink_after=99"]),
        "chaos")

    kills = 0
    killed_rounds = set()
    ckpt = chaos / "ckpt"
    while kills < args.kills:
        launched = sup.next_round_pids(args.ranks)
        if launched is None:
            break  # ran out of rounds before landing every kill
        round_no, pids = launched
        if round_no in killed_rounds:
            continue
        # The round resumes from the checkpoint committed when it launched
        # (none in the first round).
        resumed_from = max(meta_step(ckpt), 0)
        offset = rng.randint(1, 2 * args.checkpoint_every)
        victim = rng.choice(sorted(pids))
        target = resumed_from + offset

        def reached_target():
            step = meta_step(ckpt)
            return step if step >= target else None

        committed = wait_until(sup, reached_target, args.timeout)
        if committed is None:
            print(f"  (round {round_no} ended before committing step "
                  f"{target})")
            continue
        try:
            os.kill(pids[victim], signal.SIGKILL)
        except ProcessLookupError:
            print(f"  (round {round_no} finished before the kill landed)")
            continue
        kills += 1
        killed_rounds.add(round_no)
        print(f"  chaos: SIGKILL rank {victim} (pid {pids[victim]}) "
              f"in round {round_no}, resumed from step {resumed_from}, "
              f"once step {committed} was committed (offset {offset})",
              flush=True)

    code, output = sup.finish(args.timeout)
    if code != 0:
        print(output)
        print(f"FAIL: supervised run exited {code}")
        return False
    if kills < args.kills:
        print(output)
        print(f"FAIL: only landed {kills}/{args.kills} kills — "
              "raise --steps so rounds last long enough")
        return False
    done = read_done_event(chaos / "supervise.jsonl")
    if not done or done["restarts"] < kills:
        print(output)
        print(f"FAIL: expected >= {kills} restarts, got {done}")
        return False
    print(f"  supervised run recovered from {kills} kills "
          f"({done['restarts']} restarts, {done['rounds']} rounds)")
    return compare_checkpoints(ref / "ckpt", chaos / "ckpt")


def lost_host_mode(args, v6d, work, common):
    chaos = work / "lost-host"
    chaos.mkdir(parents=True)
    dead_rank = args.ranks - 1
    telemetry = chaos / "telemetry.jsonl"
    sup = Supervised(
        supervise_cmd(v6d, chaos, common, args.ranks,
                      ["max_restarts=12", "shrink_after=2",
                       f"min_world={args.ranks - 1}",
                       "checkpoint_every=1000", f"telemetry={telemetry}"]),
        "lost-host")

    shrunk = False
    while not shrunk:
        launched = sup.next_round_pids(args.ranks)
        if launched is None:
            break  # child exited; verdict comes from the exit code below
        round_no, pids = launched
        # Let the mesh form first: a rank killed mid-rendezvous makes the
        # survivors burn the (long) connect budget instead of the fast
        # peer-loss path, and either way the round fails without progress.
        # The lead writes its first row after the round's first step.
        if not wait_until(sup, lambda: nonempty(telemetry), args.timeout):
            break  # child exited; verdict comes from the exit code below
        try:
            os.kill(pids[dead_rank], signal.SIGKILL)
            print(f"  chaos: host of rank {dead_rank} still dead "
                  f"(round {round_no})", flush=True)
        except ProcessLookupError:
            pass
        # The lead keeps writing to the unlinked file until it exits; the
        # next round's lead starts a new one, which alone can signal it.
        telemetry.unlink(missing_ok=True)
        shrunk = any(SHRINK_LINE.search(line) for line in sup.lines)

    code, output = sup.finish(args.timeout)
    if code != 0:
        print(output)
        print(f"FAIL: degraded run exited {code}")
        return False
    done = read_done_event(chaos / "supervise.jsonl")
    if not done or done["shrinks"] < 1 or done["final_world"] != args.ranks - 1:
        print(output)
        print(f"FAIL: expected a shrink to world {args.ranks - 1}, got {done}")
        return False
    print(f"  lost-host run degraded {args.ranks} -> {done['final_world']} "
          f"and completed (last_step={done['last_step']})")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("v6d", type=pathlib.Path, help="v6d CLI binary")
    parser.add_argument("workdir", type=pathlib.Path)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--kills", type=int, default=2)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--checkpoint-every", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--lost-host", action="store_true",
                        help="kill the same rank every round until the "
                             "world shrinks, instead of random kills")
    args = parser.parse_args()

    work = args.workdir.resolve()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    v6d = args.v6d.resolve()

    # Lost-host mode shrinks the world from N to N-1 ranks, so the grid
    # must decompose evenly for both counts (12 divides by 4, 3, and 2);
    # kill mode keeps the world size and can use the cheaper 8^3 grid.
    nx = 12 if args.lost_host else 8
    common = SCENARIO_KEYS + [f"nx={nx}", f"max_steps={args.steps}",
                              f"checkpoint_every={args.checkpoint_every}"]
    ok = (lost_host_mode if args.lost_host else kill_mode)(
        args, v6d, work, common)
    if not ok:
        print("chaos run FAILED")
        return 1
    print("chaos run passed: supervised recovery is bit-exact" if
          not args.lost_host else
          "chaos run passed: lost host degraded gracefully")
    return 0


if __name__ == "__main__":
    sys.exit(main())
