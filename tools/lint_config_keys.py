#!/usr/bin/env python3
"""Lint: config keys read through common/options and the docs must agree.

    python3 tools/lint_config_keys.py [repo-root]
    python3 tools/lint_config_keys.py --self-test

Three cross-checks, all by string literal:

  1. Every key read in src/ or apps/ (`opt.get("key", ...)`, `get_int`,
     `get_double`, `get_u64`, `get_bool`, `has`) must be documented in a
     key table of docs/CONFIG.md — the driver surface is the user contract.
  2. Every key read in bench/ or examples/ must be documented in
     docs/CONFIG.md or docs/BENCHMARKING.md (bench-only knobs live there).
  3. Every documented key must be read somewhere in src/apps/bench/
     examples — stale rows rot faster than missing ones.
     Keys used in configs/*.cfg are also checked against the docs.

A "key table" is any markdown table whose header's first cell is `Key`;
the key is the backticked name in the first column.  Keys beginning with
`-` are CLI flags, not config keys, and are ignored.  Stdlib only.
"""
import glob
import os
import re
import sys
import tempfile

CODE_DIRS_STRICT = ("src", "apps")       # must be in CONFIG.md
CODE_DIRS_BENCH = ("bench", "examples")  # CONFIG.md or BENCHMARKING.md
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

_READ = re.compile(
    r"\b(?:get_int|get_double|get_u64|get_bool|get|has)\s*\(\s*\"([^\"]+)\"")
_TABLE_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")
_TABLE_HEADER = re.compile(r"^\|\s*([^|]+?)\s*\|")
_CFG_LINE = re.compile(r"^\s*([A-Za-z0-9_.\-]+)\s*=")
_CFG_SECTION = re.compile(r"^\s*\[([^\]]+)\]")


def scan_code_keys(root, dirs):
    """{key: [(relpath, lineno), ...]} of option reads with literal keys."""
    found = {}
    for sub in dirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, start=1):
                        for m in _READ.finditer(line):
                            key = m.group(1)
                            if key.startswith("-"):
                                continue  # CLI flag spelling, not a key
                            found.setdefault(key, []).append((rel, lineno))
    return found


def scan_doc_keys(path):
    """Backticked first-column entries of tables headed `| Key | ... |`."""
    keys = set()
    if not os.path.exists(path):
        return keys
    in_key_table = False
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if not line.startswith("|"):
                in_key_table = False
                continue
            header = _TABLE_HEADER.match(line)
            if header and header.group(1).strip() == "Key":
                in_key_table = True
                continue
            if not in_key_table:
                continue
            row = _TABLE_ROW.match(line)
            if row:
                keys.add(row.group(1).strip())
    return keys


def scan_cfg_keys(root):
    """{key: [(relpath, lineno), ...]} from configs/*.cfg INI files."""
    found = {}
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
        rel = os.path.relpath(path, root)
        section = ""
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                stripped = line.split("#")[0].split(";")[0]
                sec = _CFG_SECTION.match(stripped)
                if sec:
                    section = sec.group(1).strip() + "."
                    continue
                m = _CFG_LINE.match(stripped)
                if m:
                    found.setdefault(section + m.group(1), []).append(
                        (rel, lineno))
    return found


def lint_tree(root):
    failures = []
    config_keys = scan_doc_keys(os.path.join(root, "docs", "CONFIG.md"))
    bench_keys = scan_doc_keys(os.path.join(root, "docs", "BENCHMARKING.md"))
    strict_reads = scan_code_keys(root, CODE_DIRS_STRICT)
    bench_reads = scan_code_keys(root, CODE_DIRS_BENCH)
    cfg_reads = scan_cfg_keys(root)

    for key, sites in sorted(strict_reads.items()):
        if key not in config_keys:
            rel, lineno = sites[0]
            failures.append((rel, lineno,
                             f'key "{key}" is read here but undocumented in '
                             "docs/CONFIG.md"))
    for key, sites in sorted(bench_reads.items()):
        if key not in config_keys | bench_keys:
            rel, lineno = sites[0]
            failures.append((rel, lineno,
                             f'key "{key}" is read here but undocumented in '
                             "docs/CONFIG.md or docs/BENCHMARKING.md"))
    for key, sites in sorted(cfg_reads.items()):
        if key not in config_keys:
            rel, lineno = sites[0]
            failures.append((rel, lineno,
                             f'config file sets "{key}" which docs/CONFIG.md '
                             "does not document"))

    all_reads = set(strict_reads) | set(bench_reads)
    for key in sorted(config_keys | bench_keys):
        if key not in all_reads:
            doc = "CONFIG.md" if key in config_keys else "BENCHMARKING.md"
            failures.append((f"docs/{doc}", 0,
                             f'documented key "{key}" is never read via '
                             "common/options in src/apps/bench/examples"))
    return failures


CLEAN_SRC = """\
void apply(const v6d::Options& opt) {
  nx = opt.get_int("nx", nx);
  label = opt.get("label", label);
  if (opt.has("cfl")) cfl = opt.get_double("cfl", cfl);
  seed = opt.get_u64("seed", seed);
  json = opt.get("--json-out", "");  // CLI flag: exempt
}
"""

CLEAN_DOC = """\
# Config

| Key | Default | Meaning |
| --- | --- | --- |
| `nx` | `8` | Grid. |
| `label` | *(empty)* | Name. |
| `cfl` | `0.9` | Bound. |
| `seed` | `77` | Realization. |

| Scenario | Species |
| --- | --- |
| `not_a_key` | ignored (header is not Key). |
"""

SEEDED_SRC = """\
void apply(const v6d::Options& opt) {
  nx = opt.get_int("nx", nx);
  ghost = opt.get_int("ghost_width", 3);
}
"""

SEEDED_DOC = """\
# Config

| Key | Default | Meaning |
| --- | --- | --- |
| `nx` | `8` | Grid. |
| `retired_key` | `0` | No longer read anywhere. |
"""


def _write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        _write(tmp, "src/config.cpp", CLEAN_SRC)
        _write(tmp, "docs/CONFIG.md", CLEAN_DOC)
        failures = lint_tree(tmp)
        if failures:
            print(f"self-test FAIL: clean fixture flagged: {failures}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        _write(tmp, "src/config.cpp", SEEDED_SRC)
        _write(tmp, "docs/CONFIG.md", SEEDED_DOC)
        _write(tmp, "configs/run.cfg", "nx = 8\nundocumented_cfg_key = 1\n")
        failures = lint_tree(tmp)
        got = {msg.split('"')[1] for (_, _, msg) in failures}
        want = {"ghost_width", "retired_key", "undocumented_cfg_key"}
        if got != want:
            print(f"self-test FAIL: flagged {sorted(got)}, expected "
                  f"{sorted(want)}")
            return 1
    print("self-test OK: undocumented/stale/config-file violations caught, "
          "clean fixture clean")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    failures = lint_tree(root)
    for rel, lineno, msg in failures:
        where = f"{rel}:{lineno}" if lineno else rel
        print(f"FAIL {where}: {msg}")
    if failures:
        print(f"{len(failures)} config-key doc mismatch(es); keep code, "
              "configs/ and docs/CONFIG.md in lockstep "
              "(see docs/DEVELOPMENT.md)")
        return 1
    print("OK   config keys, configs/ and docs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
