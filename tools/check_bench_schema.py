#!/usr/bin/env python3
"""Validate BENCH_*.json / perf.json files against the v6d-perf/1 schema.

Stdlib only (CI runs it without installing anything):

    python3 tools/check_bench_schema.py build/BENCH_*.json

Exit status 0 when every file conforms, 1 otherwise.  The check is
structural (required keys, types, value sanity) — it never fails on how
fast or slow a phase ran, so perf noise cannot break CI.
"""
import json
import sys

SCHEMA = "v6d-perf/1"


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.get("schema") != SCHEMA:
        return fail(path, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        return fail(path, "missing or empty 'name'")

    context = doc.get("context")
    if not isinstance(context, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in context.items()
    ):
        return fail(path, "'context' must be an object of string values")
    for key in ("isa", "float_width", "threads"):
        if key not in context:
            return fail(path, f"context is missing '{key}'")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        return fail(path, "'phases' must be an array")
    for i, p in enumerate(phases):
        if not isinstance(p, dict):
            return fail(path, f"phases[{i}] is not an object")
        if not isinstance(p.get("name"), str) or not p["name"]:
            return fail(path, f"phases[{i}] missing 'name'")
        for key in ("seconds", "seconds_per_rep"):
            if not is_num(p.get(key)) or p[key] < 0:
                return fail(path, f"phases[{i}] ('{p['name']}') bad '{key}'")
        if not isinstance(p.get("reps"), int) or p["reps"] < 1:
            return fail(path, f"phases[{i}] ('{p['name']}') bad 'reps'")
        for key in ("cells", "bytes", "cell_updates_per_s", "gb_per_s",
                    "self_seconds"):
            if key in p and (not is_num(p[key]) or p[key] < 0):
                return fail(path, f"phases[{i}] ('{p['name']}') bad '{key}'")

    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        return fail(path, "'metrics' must be an array")
    for i, m in enumerate(metrics):
        if not isinstance(m, dict):
            return fail(path, f"metrics[{i}] is not an object")
        if not isinstance(m.get("name"), str) or not m["name"]:
            return fail(path, f"metrics[{i}] missing 'name'")
        if not is_num(m.get("value")):
            return fail(path, f"metrics[{i}] ('{m['name']}') bad 'value'")
        if not isinstance(m.get("unit"), str):
            return fail(path, f"metrics[{i}] ('{m['name']}') bad 'unit'")

    n_ph, n_me = len(phases), len(metrics)
    print(f"OK   {path}: {doc['name']} ({n_ph} phases, {n_me} metrics)")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    ok = True
    for path in argv[1:]:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
