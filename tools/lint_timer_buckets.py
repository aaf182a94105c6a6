#!/usr/bin/env python3
"""Lint: every timer region a bench/report *reads* must be one the code
actually *opens*, and the trace contract must list exactly what src/ emits.

    python3 tools/lint_timer_buckets.py [repo-root]
    python3 tools/lint_timer_buckets.py --self-test

The scaling benches and the driver's perf report query the record by name
(`timers.total("halo-wait")`, `total("step/vlasov")`); a renamed region
silently turns those metrics into zeros — `compare_bench.py` then gates CI
on a metric that no longer measures anything.  tools/trace_summary.py keys
its analysis on event names (KNOWN_EVENTS) the same way.  One producer set
serves both checks:

  producers — the string literals of every `ScopedTimer x(...)` (a region
              emits its trace span under the same name), and the
              `trace::instant("name")` / `trace::counter("name", ...)`
              literals, in src/
  consumers — `reg.total("path")`, `reg.self("path")`,
              `reg.median_sample("path")`, `reg.samples("path")` in src/,
              apps/, bench/, examples/: every '/'-separated part of the
              path must be a producer
  contract  — the KNOWN_EVENTS set literal in tools/trace_summary.py must
              equal the producer set, in both directions

tests/ are excluded: suites open and read their own ad-hoc regions.
Stdlib only; exit 0 when the tree is clean.
"""
import os
import re
import sys
import tempfile

PRODUCER_DIRS = ("src",)
CONSUMER_DIRS = ("src", "apps", "bench", "examples")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

_REGION = re.compile(r"\bScopedTimer\s+\w+\s*\(([^;]*)\)\s*;")
_EVENT = re.compile(r"\btrace::(?:instant|counter)\s*\(\s*\"([^\"]+)\"")
_CONSUME = re.compile(
    r"\b(?:total|self|median_sample|samples)\s*\(\s*\"([^\"]+)\"\s*\)")
_KNOWN_EVENTS_BLOCK = re.compile(r"KNOWN_EVENTS\s*=\s*\{(.*?)\}", re.DOTALL)
_STRING_LITERAL = re.compile(r"\"([^\"]+)\"")


def scan(root, dirs, pattern, literals=False):
    """Return {name: [(relpath, lineno), ...]} for every match of `pattern`:
    its first group, or with `literals` every string literal in it."""
    found = {}
    for sub in dirs:
        for dirpath, _, filenames in os.walk(os.path.join(root, sub)):
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, start=1):
                        for m in pattern.finditer(line):
                            names = (_STRING_LITERAL.findall(m.group(1))
                                     if literals else [m.group(1)])
                            for n in names:
                                found.setdefault(n, []).append((rel, lineno))
    return found


def producers(root):
    found = scan(root, PRODUCER_DIRS, _REGION, literals=True)
    for name, sites in scan(root, PRODUCER_DIRS, _EVENT).items():
        found.setdefault(name, []).extend(sites)
    return found


def trace_contract(root):
    """The KNOWN_EVENTS set literal of tools/trace_summary.py (None when the
    file is absent)."""
    path = os.path.join(root, "tools", "trace_summary.py")
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        m = _KNOWN_EVENTS_BLOCK.search(f.read())
    return set(_STRING_LITERAL.findall(m.group(1))) if m else set()


def lint_tree(root):
    """Return (failures, produced, consumed); each failure is a message."""
    produced = producers(root)
    consumed = scan(root, CONSUMER_DIRS, _CONSUME)
    failures = []
    for name, sites in sorted(consumed.items()):
        unknown = [part for part in name.split("/") if part not in produced]
        if not unknown:
            continue
        for rel, lineno in sites:
            failures.append(
                f"{rel}:{lineno}: \"{name}\" is read but no region in src/ "
                f"is named {', '.join(repr(u) for u in unknown)}")
    contract = trace_contract(root)
    if contract is not None:
        for name in sorted(set(produced) - contract):
            rel, lineno = produced[name][0]
            failures.append(
                f"{rel}:{lineno}: event \"{name}\" is emitted in src/ but "
                "missing from KNOWN_EVENTS in tools/trace_summary.py")
        for name in sorted(contract - set(produced)):
            failures.append(
                f"KNOWN_EVENTS entry \"{name}\" in tools/trace_summary.py is "
                "never emitted by any region, instant or counter in src/")
    return failures, produced, consumed


CLEAN_FIXTURE_SRC = """\
void step(v6d::TimerRegistry& reg, bool fold) {
  v6d::ScopedTimer t(reg, "step");
  v6d::ScopedTimer h("halo");
  v6d::ScopedTimer w(fold ? "fold-wait" : "fill-wait");
  trace::instant("marker");
  trace::counter("mass-drift", 0.0);
}
"""

CLEAN_FIXTURE_BENCH = """\
double report(const v6d::TimerRegistry& reg) {
  return reg.total("halo") + reg.median_sample("step") +
         reg.total("fold-wait") + reg.self("step/halo");
}
"""

CLEAN_FIXTURE_SUMMARY = """\
KNOWN_EVENTS = {
    "step",
    "halo",
    "fold-wait",
    "fill-wait",
    "marker",
    "mass-drift",
}
"""

SEEDED_PHANTOM_BENCH = """\
double broken(const v6d::TimerRegistry& reg) {
  return reg.total("halo-watt") + reg.samples("steps").size();
}
"""

SEEDED_UNLISTED_SRC = """\
void broken_traced() {
  v6d::ScopedTimer region("unlisted-span");
}
"""


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp, "src/solver.cpp", CLEAN_FIXTURE_SRC)
        write(tmp, "bench/report.cpp", CLEAN_FIXTURE_BENCH)
        write(tmp, "tools/trace_summary.py", CLEAN_FIXTURE_SUMMARY)
        failures, _, _ = lint_tree(tmp)
        if failures:
            print(f"self-test FAIL: clean fixture flagged: {failures}")
            return 1
        write(tmp, "bench/broken.cpp", SEEDED_PHANTOM_BENCH)
        failures, _, _ = lint_tree(tmp)
        msgs = "\n".join(failures)
        if (len(failures) != 2 or "halo-watt" not in msgs
                or "'steps'" not in msgs):
            print(f"self-test FAIL: phantom reads flagged: {failures}")
            return 1
        os.remove(os.path.join(tmp, "bench", "broken.cpp"))
        # Seed contract violations in both directions: a region the
        # contract does not list, and a contract entry nothing emits.
        write(tmp, "src/broken_traced.cpp", SEEDED_UNLISTED_SRC)
        write(tmp, "tools/trace_summary.py", CLEAN_FIXTURE_SUMMARY.replace(
            '    "marker",\n', '    "marker",\n    "ghost-event",\n'))
        failures, _, _ = lint_tree(tmp)
        msgs = "\n".join(failures)
        if (len(failures) != 2 or "unlisted-span" not in msgs
                or "ghost-event" not in msgs):
            print(f"self-test FAIL: contract check flagged: {failures}")
            return 1
    print("self-test OK: 2 seeded phantom reads + 2 seeded contract "
          "mismatches caught, clean fixture clean")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    failures, produced, consumed = lint_tree(root)
    for msg in failures:
        print(f"FAIL {msg}")
    if failures:
        print("known names: " + ", ".join(sorted(produced)))
        return 1
    print(f"OK   {len(consumed)} consumed name(s) all have producers; "
          f"{len(produced)} region/event name(s) match KNOWN_EVENTS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
