"""Arithmetic shared by the benchmark: percentiles, robust rates, self time.

Everything here is pure and small so that test_perfbench.py can check it
without running the program.
"""
from __future__ import annotations

import math
import statistics

# The tail percentile every workload reports, over inputs (each at its
# median call). Every workload times at least MIN_INPUTS inputs, so at
# least MIN_BEYOND of them lie beyond it.
TAIL_PCT = 90
MIN_INPUTS = 100
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> float:
    """Expected number of samples above the pct-th percentile of n samples."""
    return n * (100.0 - pct) / 100.0


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least MIN_BEYOND samples beyond it."""
    if n < MIN_BEYOND:
        return None
    return int(math.floor(100.0 - 100.0 * MIN_BEYOND / n + 1e-9))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_iqr(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_per_input(samples) -> dict:
    """Each input's median call: {key: (items, seconds)}.

    `samples` is an iterable of (key, items, seconds), one per operation,
    where key names the input; inputs repeat across passes. A shared host
    shifts between slower and faster stretches lasting seconds to minutes;
    an input's fastest call depends on whether such a stretch fell inside
    the run, its median on the stretch the run mostly saw.
    """
    calls: dict = {}
    for key, n_items, seconds in samples:
        calls.setdefault(key, (n_items, []))[1].append(seconds)
    return {key: (n_items, statistics.median(times)) for key, (n_items, times) in calls.items()}


def median_rate(samples) -> float:
    """Items per second of busy time, each input counted once at its median call."""
    per_input = median_per_input(samples).values()
    return sum(n for n, _ in per_input) / sum(t for _, t in per_input)


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of its children's intervals.

    Spans are given as parallel sequences; parents[i] is the index of span
    i's parent or -1. Children are clipped to their parent's interval.
    """
    children: dict = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def scan_bounds_bytes(n_planes: int) -> int:
    """Bytes `kernels.scan_bounds` must read and write, computed from array sizes.

    Inputs: the (n, 3) float64 normals, the 3x3 inverse shape matrix and the
    centre and contact point (3 float64 each). Outputs: p_min and p_max
    (float64) and the valid mask (bool) per plane. Cache misses and
    temporaries are not counted, so this is a lower bound labelled "computed".
    """
    return n_planes * (3 * 8 + 2 * 8 + 1) + (9 + 3 + 3) * 8
