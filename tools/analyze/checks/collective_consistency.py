"""collective-consistency: no collective call reachable on a strict subset
of ranks.

Every Communicator collective (`barrier`, `allreduce_*`, `bcast`,
`allgather`, `alltoall*`) must be called by all ranks in matching order
(src/comm/transport.hpp contract).  The classic distributed-deadlock
shape is a collective guarded by a rank-dependent condition:

    if (comm.rank() == 0) comm.barrier();          // ranks != 0 never arrive

or the early-return variant:

    if (!lead) return;
    comm.allreduce_sum(&x, 1);                     // lead-only allreduce

The analysis is per function: a tiny taint pass marks identifiers derived
from `rank()` / `rank` / `is_lead*` locals (`const bool lead =
comm.rank() == 0;` taints `lead`), then every `if` whose condition is
tainted must call the same multiset of collective names in both branches,
and a tainted branch that returns/throws must not be followed by
collectives later in the function body.  MUST/MPI-Checker style
collective-consistency, scoped to this project's comm API.
"""
import re

from .. import scopes
from . import Finding

NAME = "collective-consistency"
DESCRIPTION = ("collectives must be unconditionally reachable on every "
               "rank: both branches of a rank-dependent if, never after a "
               "rank-dependent early return")

COLLECTIVES = {
    "barrier", "allreduce_sum", "allreduce_max", "allreduce_min",
    "bcast", "bcast_bytes", "allgather", "allgather_bytes",
    "alltoall", "alltoall_bytes", "alltoallv",
    # Project collective helper (every rank must call; field_exchange.hpp).
    "allgather_bricks",
}

_RANK_IDENT = re.compile(r"^(rank_?|my_?rank|world_?rank|is_lead\w*|lead\w*)$")


def run(files):
    findings = []
    for sf in files:
        for fn in sf.functions:
            findings.extend(_check_function(sf, fn))
    return findings


def _check_function(sf, fn):
    tokens = sf.tokens
    start, end = fn.body
    tainted = _taint_pass(tokens, start, end)
    findings = []
    divergence = None  # (line, cond_desc) after a rank-dependent early exit
    for stmt in scopes.if_statements(tokens, fn.body):
        if not _cond_tainted(tokens, stmt.cond, tainted):
            continue
        then_calls = _collectives_in(tokens, stmt.then)
        else_calls = _collectives_in(tokens, stmt.orelse) \
            if stmt.orelse else {}
        for name, lines in then_calls.items():
            if name not in else_calls:
                for line in lines:
                    findings.append(Finding(
                        NAME, sf.rel, line,
                        f"collective `{name}` only on the taken branch of "
                        f"the rank-dependent `if` at line {stmt.line}; "
                        "ranks on the other branch never arrive "
                        "(distributed deadlock)"))
        for name, lines in else_calls.items():
            if name not in then_calls:
                for line in lines:
                    findings.append(Finding(
                        NAME, sf.rel, line,
                        f"collective `{name}` only on the else branch of "
                        f"the rank-dependent `if` at line {stmt.line}; "
                        "ranks taking the branch never arrive "
                        "(distributed deadlock)"))
        if divergence is None and stmt.orelse is None \
                and _exits_scope(tokens, stmt.then):
            divergence = stmt
    if divergence is not None:
        div_end = divergence.then[1]
        for name, _, _, line in scopes.member_calls(
                tokens, (div_end, end), COLLECTIVES):
            findings.append(Finding(
                NAME, sf.rel, line,
                f"collective `{name}` is unreachable for ranks that took "
                f"the rank-dependent early exit at line {divergence.line} "
                "(distributed deadlock)"))
    return findings


def _taint_pass(tokens, start, end):
    """Identifiers assigned from rank-dependent expressions in this body."""
    tainted = set()
    i = start
    while i < end:
        t = tokens[i]
        # Declaration-with-init: `... name = expr ;` / `... name(expr)` —
        # taint `name` when expr mentions rank state.  One forward pass is
        # enough for the `const bool lead = rank() == 0;` idiom.
        if t.kind == "ident" and i + 1 < end \
                and tokens[i + 1].kind == "punct" \
                and tokens[i + 1].text == "=" \
                and not t.text[0].isdigit():
            stmt_end = i + 1
            depth = 0
            while stmt_end < end:
                tt = tokens[stmt_end]
                if tt.kind == "punct":
                    if tt.text in "([{":
                        depth += 1
                    elif tt.text in ")]}":
                        depth -= 1
                        if depth < 0:
                            break
                    elif tt.text == ";" and depth == 0:
                        break
                stmt_end += 1
            if _span_mentions_rank(tokens, (i + 2, stmt_end), tainted):
                tainted.add(t.text)
            i = stmt_end
            continue
        i += 1
    return tainted


def _span_mentions_rank(tokens, span, tainted):
    for j in range(*span):
        t = tokens[j]
        if t.kind != "ident":
            continue
        if t.text in tainted or _RANK_IDENT.match(t.text):
            return True
        if t.text == "rank":
            return True
    return False


def _cond_tainted(tokens, cond, tainted):
    return _span_mentions_rank(tokens, cond, tainted)


def _collectives_in(tokens, span):
    calls = {}
    for name, _, _, line in scopes.member_calls(tokens, span, COLLECTIVES):
        calls.setdefault(name, []).append(line)
    return calls


def _exits_scope(tokens, span):
    """True if the statement span unconditionally returns from the
    function.  Only `return` counts: a rank-dependent `throw` is not a
    deadlock in this runtime (a throwing rank aborts the world and wakes
    every parked peer — tests/test_comm.cpp asserts exactly that), and
    `continue`/`break` are loop-local, so collectives after the loop are
    still reached by every rank."""
    start, end = span
    depth = 0
    for j in range(start, end):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
        elif t.kind == "ident" and depth <= 1 and t.text == "return":
            return True
    return False
