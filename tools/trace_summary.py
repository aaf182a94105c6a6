#!/usr/bin/env python3
"""Summarize a v6d Chrome trace: per-rank critical paths, measured halo
overlap efficiency, and rank imbalance.  Optionally folds in the telemetry
JSONL heartbeat and cross-checks rank 0's overlap efficiency against the
region paths of the run's v6d-perf/1 report.

Usage:
  python3 tools/trace_summary.py TRACE.json
      [--telemetry telemetry.jsonl] [--perf perf.json] [--tolerance 0.10]
  python3 tools/trace_summary.py --self-test

Exit status is non-zero when --perf is given and the two efficiencies
disagree by more than --tolerance (relative).  The trace spans and the
report paths come from the same region clock reads, so they must agree.
stdlib only; CI runs this after the traced distributed-smoke run.
"""

import argparse
import json
import sys

# Every span/instant/counter name the C++ side can produce.  Kept in
# lockstep with src/ by tools/lint_timer_buckets.py (both directions), so
# a renamed region fails the lint rather than silently vanishing from the
# summary.
KNOWN_EVENTS = {
    # timed regions (ScopedTimer), each a span under its leaf name
    "step",
    "step-control",
    "checkpoint-io",
    "vlasov",
    "kick",
    "drift",
    "halo",
    "halo-begin",
    "halo-finish",
    "halo-wait",
    "vlasov-moments",
    "deposit",
    "pm",
    "fold-begin",
    "fold-finish",
    "fold-wait",
    "fill-wait",
    "slab-begin",
    "slab-finish",
    "slab-wait",
    "fft-forward",
    "fft-inverse",
    "tree",
    "retry-backoff",
    "supervise-relaunch",
    "supervise-wait",
    # trace::counter names
    "comm-bytes-sent",
    "mass-drift",
}


def load_events(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data.get("traceEvents", [])


def analyze(events):
    """Fold a traceEvents list into per-rank statistics.

    Returns a dict:
      ranks: {pid: {"total": {name: us}, "self": {name: us},
                    "steps": n, "step_us": us, "wall_us": us}}
      counters: {pid: {name: last_value}}
      unknown: sorted list of event names outside KNOWN_EVENTS
    """
    ranks = {}
    counters = {}
    unknown = set()
    stacks = {}  # (pid, tid) -> [[name, start_ts, child_us], ...]
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "C"):
            continue
        name = ev["name"]
        pid = ev.get("pid", 0)
        if name not in KNOWN_EVENTS:
            unknown.add(name)
        rank = ranks.setdefault(
            pid,
            {"total": {}, "self": {}, "steps": 0, "step_us": 0.0,
             "first_us": None, "last_us": 0.0},
        )
        ts = ev.get("ts", 0.0)
        if ph in ("B", "E", "i", "C"):
            if rank["first_us"] is None:
                rank["first_us"] = ts
            rank["last_us"] = max(rank["last_us"], ts)
        if ph == "C":
            counters.setdefault(pid, {})[name] = (
                ev.get("args", {}).get("value", 0.0)
            )
            continue
        key = (pid, ev.get("tid", 0))
        stack = stacks.setdefault(key, [])
        if ph == "B":
            stack.append([name, ts, 0.0])
        elif ph == "E" and stack and stack[-1][0] == name:
            _, t0, child_us = stack.pop()
            dur = max(ts - t0, 0.0)
            rank["total"][name] = rank["total"].get(name, 0.0) + dur
            # Self time excludes nested spans — the critical-path view.
            rank["self"][name] = rank["self"].get(name, 0.0) + max(
                dur - child_us, 0.0
            )
            if stack:
                stack[-1][2] += dur
            if name == "step":
                rank["steps"] += 1
                rank["step_us"] += dur
    for rank in ranks.values():
        if rank["first_us"] is None:
            rank["first_us"] = 0.0
        rank["wall_us"] = rank["last_us"] - rank["first_us"]
    return {"ranks": ranks, "counters": counters, "unknown": sorted(unknown)}


def overlap_efficiency(ranks, lead=False):
    """Exposed halo wait / total halo time: 0 = fully hidden, 1 = fully
    on the critical path.  The 'halo' region covers begin+finish+wait;
    'halo-wait' regions cover only the blocking waits.  Summed over all
    ranks (the summary's headline), or rank 0 alone with `lead` (the rank
    whose record a driver perf report holds)."""
    picked = [r for pid, r in ranks.items() if pid == 0 or not lead]
    halo = sum(r["total"].get("halo", 0.0) for r in picked)
    if halo <= 0.0:
        return None
    return sum(r["total"].get("halo-wait", 0.0) for r in picked) / halo


def rank_imbalance(ranks):
    """(max - min) / max of per-rank total step time; 0 = perfectly even."""
    totals = [r["step_us"] for r in ranks.values() if r["steps"] > 0]
    if len(totals) < 2 or max(totals) <= 0.0:
        return 0.0
    return (max(totals) - min(totals)) / max(totals)


def report_efficiency(perf):
    """The same ratio from a driver's v6d-perf/1 report: its region paths
    ending in halo-wait over those ending in halo (the lead rank's
    record); None without halo time."""
    def leaf_seconds(leaf):
        return sum(p["seconds"] for p in perf.get("phases", [])
                   if p["name"] == leaf or p["name"].endswith("/" + leaf))

    halo = leaf_seconds("halo")
    return leaf_seconds("halo-wait") / halo if halo > 0.0 else None


def summarize_telemetry(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    if not rows:
        return None
    last = rows[-1]
    return {
        "heartbeats": len(rows),
        "last_step": last.get("step"),
        "last_a": last.get("a"),
        "mass_drift": last.get("mass_drift"),
        "total_step_s": sum(r.get("step_seconds", 0.0) for r in rows),
        "comm_bytes": last.get("comm_bytes"),
        "rss_mb": last.get("rss_mb"),
    }


def print_summary(result, top=8):
    ranks = result["ranks"]
    for pid in sorted(ranks):
        r = ranks[pid]
        print(
            f"rank {pid}: {r['steps']} steps, "
            f"{r['step_us'] / 1e6:.3f} s in step spans, "
            f"{r['wall_us'] / 1e6:.3f} s traced wall"
        )
        ordered = sorted(
            r["self"].items(), key=lambda kv: kv[1], reverse=True
        )[:top]
        for name, us in ordered:
            total = r["total"].get(name, 0.0)
            print(
                f"    {name:<16} self {us / 1e6:9.3f} s   "
                f"total {total / 1e6:9.3f} s"
            )
    eff = overlap_efficiency(ranks)
    if eff is not None:
        print(f"halo overlap efficiency (trace): {eff:.3f} "
              "(exposed wait / total halo; lower = better hidden)")
    imb = rank_imbalance(ranks)
    print(f"rank imbalance (step time): {imb:.3f}")
    if result["unknown"]:
        print(f"WARNING: unknown event names: {', '.join(result['unknown'])}")


def self_test():
    us = 1.0  # timestamps below are already in microseconds

    def ev(ph, name, ts, pid=0, tid=0, **extra):
        out = {"name": name, "ph": ph, "pid": pid, "tid": tid, "ts": ts}
        out.update(extra)
        return out

    # rank 0: step [0,100] containing halo [10,40] containing
    # halo-wait [20,30]; rank 1: step [0,50], halo [10,30], no wait.
    events = [
        ev("B", "step", 0 * us),
        ev("B", "halo", 10 * us),
        ev("B", "halo-wait", 20 * us),
        ev("E", "halo-wait", 30 * us),
        ev("E", "halo", 40 * us),
        ev("E", "step", 100 * us),
        ev("B", "step", 0 * us, pid=1),
        ev("B", "halo", 10 * us, pid=1),
        ev("E", "halo", 30 * us, pid=1),
        ev("E", "step", 50 * us, pid=1),
        ev("C", "comm-bytes-sent", 50 * us, pid=1, args={"value": 64}),
    ]
    r = analyze(events)
    assert r["unknown"] == [], r["unknown"]
    assert r["ranks"][0]["steps"] == 1
    # self(step) = 100 - 30(halo) ; self(halo) = 30 - 10(wait)
    assert abs(r["ranks"][0]["self"]["step"] - 70.0) < 1e-9
    assert abs(r["ranks"][0]["self"]["halo"] - 20.0) < 1e-9
    eff = overlap_efficiency(r["ranks"])
    assert abs(eff - 10.0 / 50.0) < 1e-9, eff  # 10 wait / (30+20) halo
    imb = rank_imbalance(r["ranks"])
    assert abs(imb - 0.5) < 1e-9, imb  # (100-50)/100
    assert r["counters"][1]["comm-bytes-sent"] == 64

    # lead: rank 0 alone (wait 10, halo 30).
    assert abs(overlap_efficiency(r["ranks"], lead=True) - 10.0 / 30.0) < 1e-9

    perf = {
        "phases": [
            {"name": "step/vlasov/drift/halo", "seconds": 2.0},
            {"name": "step/vlasov/drift/halo/halo-finish/halo-wait",
             "seconds": 0.5},
            {"name": "step/pm/slab-finish/slab-wait", "seconds": 9.0},
        ],
    }
    assert abs(report_efficiency(perf) - 0.25) < 1e-9
    # A world of one rank waits for no face: the ratio is 0, not missing.
    perf["phases"] = perf["phases"][:1]
    assert report_efficiency(perf) == 0.0
    assert report_efficiency({"phases": []}) is None

    bad = analyze([ev("B", "mystery", 0), ev("E", "mystery", 1)])
    assert bad["unknown"] == ["mystery"]
    print("trace_summary self-test OK")


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        self_test()
        return 0
    parser = argparse.ArgumentParser(
        description="Summarize a v6d Chrome trace."
    )
    parser.add_argument("trace")
    parser.add_argument("--telemetry", help="telemetry JSONL heartbeat file")
    parser.add_argument("--perf", help="v6d-perf/1 report to cross-check")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="max relative disagreement between the trace's and the "
        "report's halo overlap efficiency (default 0.10)",
    )
    args = parser.parse_args(argv[1:])

    result = analyze(load_events(args.trace))
    print_summary(result)

    if args.telemetry:
        t = summarize_telemetry(args.telemetry)
        if t is None:
            print(f"ERROR: no heartbeats in {args.telemetry}")
            return 1
        print(
            f"telemetry: {t['heartbeats']} heartbeats, last step "
            f"{t['last_step']} at a={t['last_a']:.6g}, mass drift "
            f"{t['mass_drift']:.3g}, {t['total_step_s']:.3f} s stepping, "
            f"comm {t['comm_bytes']} B, rss {t['rss_mb']:.1f} MB"
        )

    if args.perf:
        with open(args.perf, encoding="utf-8") as f:
            perf = json.load(f)
        report_eff = report_efficiency(perf)
        trace_eff = overlap_efficiency(result["ranks"], lead=True)
        if report_eff is None or trace_eff is None:
            print("cross-check skipped: no halo activity on one side")
            return 0
        # Small absolute epsilon keeps near-zero efficiencies (tiny traced
        # runs where nothing waits) from tripping the relative gate.
        denom = max(abs(report_eff), 0.05)
        rel = abs(trace_eff - report_eff) / denom
        verdict = "OK" if rel <= args.tolerance else "FAIL"
        print(
            f"cross-check (lead rank): trace {trace_eff:.3f} vs report "
            f"{report_eff:.3f} (rel diff {rel:.3f}, tol "
            f"{args.tolerance:.2f}) {verdict}"
        )
        if verdict == "FAIL":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
