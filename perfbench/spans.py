"""Span arithmetic for the traced run.

A span is ``(name, start, end, parent)``: start and end are
``time.monotonic()`` readings in seconds and parent is the index of the
enclosing span in the same list, or -1 for a root.  The child process records
the spans (see ``child.py``); this module turns them into per-layer numbers.

A span's self time is its duration minus the part of its interval that its
children cover, so the self times of one process's spans add up to the
duration of its root spans.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: p50 and p99 are reported only over at least this many samples
MIN_PERCENTILE_SAMPLES = 100

#: the self times of a traced instance must add up to its traced wall_s within
#: this share of wall_s or this many seconds, whichever is larger; the gap is
#: interpreter start-up, which no span covers
SUM_TOLERANCE_SHARE = 0.02
SUM_TOLERANCE_S = 0.1


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus covered child time."""
    children = defaultdict(list)
    for _, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [e - s - _covered(children[k], s, e) for k, (_, s, e, _) in enumerate(spans)]


def self_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        out[name] += t
    return dict(out)


def _has_ancestor_named(spans, k: int, name: str) -> bool:
    parent = spans[k][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def total(spans, name: str, parent: str | None = None) -> float:
    """Inclusive time of the spans called `name`, counting a span nested in
    another of the same name once; with `parent`, only spans whose direct
    parent is called `parent`."""
    return sum(e - s for k, (n, s, e, p) in enumerate(spans)
               if n == name and not _has_ancestor_named(spans, k, name)
               and (parent is None or (p >= 0 and spans[p][0] == parent)))


def count(spans, name: str) -> int:
    return sum(1 for n, *_ in spans if n == name)


def durations(spans, name: str) -> list[float]:
    return [e - s for n, s, e, _ in spans if n == name]


def percentile(samples, q: float) -> float | None:
    """Nearest-rank q-quantile (0 < q < 1), or None below
    MIN_PERCENTILE_SAMPLES samples."""
    if len(samples) < MIN_PERCENTILE_SAMPLES:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sum_tolerance(wall_s: float) -> float:
    return max(SUM_TOLERANCE_SHARE * wall_s, SUM_TOLERANCE_S)
