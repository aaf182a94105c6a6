#!/usr/bin/env python3
"""Check that only the AVX-512 tier bodies hold VEX/EVEX instructions.

    python3 tools/check_tier_isolation.py OBJECT[;OBJECT...] ...
    python3 tools/check_tier_isolation.py --self-test
    python3 tools/check_tier_isolation.py --skip REASON

The sweeps and the short-range force pass compile each hot body twice
(src/simd/dispatch.hpp): a baseline copy and an AVX-512 copy, a GCC
`target` + `flatten` function whose name ends in `_avx512`.  A wide
instruction anywhere else in the object would run on a CPU without AVX:
an out-of-line Pack helper the AVX-512 body failed to inline, an OpenMP
outlined body, a shift table built at the wrong width, a baseline helper
given a `target` attribute of its own.  So in each object that holds
tier bodies (CHECKED: the velocity and position sweeps, the tree's
walk-and-sum chunk and the PP kernel's pp_accumulate_simd; arguments may
be `;`-separated lists, as CMake's $<TARGET_OBJECTS> gives them), every
function whose name lacks `_avx512` must hold no instruction whose AT&T
mnemonic starts with `v` (the VEX and EVEX encodings).  (An unoptimized
build may leave the `_avx512` bodies without any: they then only call the
baseline copies' code.)

A build whose own -march enables AVX has VEX code in its baseline copies
by design; CMake passes --skip for it.  Exit 0 when clean, 1 on a
violation, 77 (CTest's skip code here) when it cannot check: --skip, or
no objdump.  Stdlib only.
"""
import os
import re
import shutil
import subprocess
import sys

CHECKED = ("velocity_advection.cpp.o", "position_advection.cpp.o",
           "tree.cpp.o", "pp_kernel.cpp.o")
SKIP = 77

_FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
_INSTRUCTION = re.compile(r"^\s+[0-9a-f]+:\t(\S+)")


def wide_instructions(disassembly):
    """Map each function of an `objdump -d --no-show-raw-insn -C` listing
    to the number of VEX/EVEX instructions it holds."""
    counts = {}
    function = None
    for line in disassembly.splitlines():
        m = _FUNCTION.match(line)
        if m:
            function = m.group(1)
            counts.setdefault(function, 0)
            continue
        m = _INSTRUCTION.match(line)
        if m and function is not None and m.group(1).startswith("v"):
            counts[function] += 1
    return counts


def violations(counts):
    """The functions of one object's counts that hold wide code outside
    the tier bodies."""
    return [f"{n} VEX/EVEX instructions in baseline function {name}"
            for name, n in sorted(counts.items())
            if n and "_avx512" not in name]


def self_test():
    clean = (
        "0000000000000000 <ns::body_baseline(float*)>:\n"
        "   0:\tmovups (%rdi),%xmm0\n"
        "0000000000000040 <ns::body_avx512(float*)>:\n"
        "  40:\tvmovups (%rdi),%zmm0\n"
        "  46:\tvzeroupper\n"
    )
    leaked = clean + (
        "0000000000000080 <ns::run(float*) [clone ._omp_fn.0]>:\n"
        "  80:\tvaddps %ymm1,%ymm0,%ymm0\n"
    )
    # A baseline helper compiled for AVX2 by a target attribute of its own.
    retargeted = clean + (
        "00000000000000c0 <v6d::gravity::(anonymous namespace)::"
        "walk_chunk_baseline(v6d::gravity::BarnesHutTree const&)>:\n"
        "  c0:\tvbroadcastss (%rsi),%ymm0\n"
        "  c5:\tvzeroupper\n"
    )
    ok = (not violations(wide_instructions(clean))
          and len(violations(wide_instructions(leaked))) == 1
          and len(violations(wide_instructions(retargeted))) == 1)
    print("self-test", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    if argv[:1] == ["--skip"]:
        print("SKIP:", " ".join(argv[1:]))
        return SKIP
    if self_test() != 0:
        return 1
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump not found")
        return SKIP
    objects = [o for arg in argv for o in arg.split(";")
               if os.path.basename(o) in CHECKED]
    if sorted(os.path.basename(o) for o in objects) != sorted(CHECKED):
        print("error: expected the objects", ", ".join(CHECKED))
        return 1
    failed = False
    for obj in objects:
        listing = subprocess.run(
            [objdump, "-d", "--no-show-raw-insn", "-C", obj],
            check=True, capture_output=True, text=True).stdout
        problems = violations(wide_instructions(listing))
        for problem in problems:
            print(f"{os.path.basename(obj)}: {problem}")
        failed = failed or bool(problems)
        if not problems:
            print(f"{os.path.basename(obj)}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
