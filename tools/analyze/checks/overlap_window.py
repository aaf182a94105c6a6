"""overlap-window: nothing blocks between a plan's begin and finish.

The overlap plans (`mesh::HaloPlan`, `mesh::GridFoldPlan`,
`parallel::SlabExchange`, field_exchange.hpp / halo_plan.hpp) split an
exchange into a non-blocking `begin*` half and a completing `finish*`
half so the caller can compute while messages fly.  A blocking primitive
between the halves — `barrier`, a blocking `recv`/`recv_bytes`,
`Mailbox::pop`, a collective, or waiting someone else's handle —
serializes the pipeline the split exists to overlap, and a second
`begin*` on the same instance violates the one-exchange-in-flight
contract both plan headers document.

The analysis is lexical and per function: a window opens at
`obj.begin*(…)` and closes at the next `obj.finish*(…)` on the same
receiver.  Finishing a *different* plan inside a window is allowed — the
step pipeline deliberately chains plans — but the raw blocking
primitives above are not.  Windows left open at the end of a function
(begin/finish split across methods) simply extend to the function end.
"""
from .. import scopes
from . import Finding

NAME = "overlap-window"
DESCRIPTION = ("no blocking comm (barrier/recv/pop/collectives/foreign "
               "wait) and no double-begin between a plan's begin*/finish* "
               "halves")

_BEGIN = {"begin_axis", "begin_to_slab", "begin_to_brick", "begin"}
_FINISH = {"finish_axis", "finish_to_slab", "finish_to_brick", "finish"}
# `begin`/`finish` are also std iterator spellings; a plan's halves always
# take at least one argument (the field being exchanged), an iterator
# accessor never does.
_AMBIGUOUS = {"begin", "finish"}

_BLOCKING = {
    "barrier", "recv", "recv_bytes", "pop", "wait", "wait_into",
    "sendrecv", "allreduce_sum", "allreduce_max", "allreduce_min",
    "bcast", "bcast_bytes", "allgather", "allgather_bytes",
    "alltoall", "alltoall_bytes", "alltoallv",
}

_ALL = _BEGIN | _FINISH | _BLOCKING


def run(files):
    findings = []
    for sf in files:
        for fn in sf.functions:
            findings.extend(_check_function(sf, fn))
    return findings


def _check_function(sf, fn):
    findings = []
    open_windows = {}  # receiver -> (method, line)
    for name, receiver, paren, line in scopes.member_calls(
            sf.tokens, fn.body, _ALL):
        has_args = bool(scopes.call_args(sf.tokens, paren))
        is_member = receiver is not None
        if name in _BEGIN and is_member:
            if name in _AMBIGUOUS and not has_args:
                continue  # container.begin() iterator
            if receiver in open_windows:
                prev_method, prev_line = open_windows[receiver]
                findings.append(Finding(
                    NAME, sf.rel, line,
                    f"`{receiver}.{name}` while `{receiver}."
                    f"{prev_method}` from line {prev_line} is still in "
                    "flight; plans allow one exchange in flight per "
                    "instance"))
            else:
                open_windows[receiver] = (name, line)
            continue
        if name in _FINISH and is_member:
            if name in _AMBIGUOUS and not has_args:
                continue
            open_windows.pop(receiver, None)
            continue
        if name in _BLOCKING and open_windows:
            if name in ("wait", "wait_into") and receiver in open_windows:
                # A plan completing its own handles is its finish path.
                continue
            opened = ", ".join(
                f"`{r}.{m}` (line {ln})"
                for r, (m, ln) in sorted(open_windows.items()))
            findings.append(Finding(
                NAME, sf.rel, line,
                f"blocking `{name}` inside the overlap window of {opened}; "
                "this serializes the split exchange the plan exists to "
                "overlap"))
    return findings
