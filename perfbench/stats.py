"""Statistics of the end-to-end benchmark.

Pure functions over the harness's raw observations, kept apart from run.py
so perfbench/tests/test_stats.py can pin each rule down.
"""

TAIL_BEYOND = 10  # samples that must rank above the reported tail


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (percentile, value): value is the (n - beyond)-th smallest
    sample, so exactly `beyond` samples rank above it, and percentile is
    100 (n - beyond) / n, the share of samples at or below it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


def setup_window(job):
    """Wall time from the job's start to the end of its first KDK step."""
    return job["step_end"][0] - job["t_start"]


def step_samples(job):
    """Wall time of every step after the first.  The first step also
    computes the force cache, so it belongs to setup_window."""
    return [end - start
            for start, end in zip(job["step_start"][1:], job["step_end"][1:])]


def _covered(intervals):
    """Total length of the union of (lo, hi) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = []
    for i, span in enumerate(spans):
        inside = [(max(c["t0"], span["t0"]), min(c["t1"], span["t1"]))
                  for c in children.get(i, ())]
        out.append(span["t1"] - span["t0"] - _covered(inside))
    return out


def self_time_by_step(spans):
    """{step: {span name: summed self time}} over the spans of the step
    loop (step >= 0)."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        if span["step"] >= 0:
            row = table.setdefault(span["step"], {})
            row[span["name"]] = row.get(span["name"], 0.0) + own
    return table


def unattributed(step_s, layer_times):
    """The part of the step no layer accounts for:
    sum(layer_times) + unattributed(step_s, layer_times) == step_s."""
    return step_s - sum(layer_times)
