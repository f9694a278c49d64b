"""Pure arithmetic shared by the benchmark's runner, worker and tests.

Nothing here imports the program under test, so these helpers can be
tested (and reasoned about) without building a cluster.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

import numpy as np

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray,
    per_child: float = 0.0, per_span: float = 0.0,
) -> np.ndarray:
    """Self time of every span: its duration minus its children's.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans nest strictly (a child lies inside its parent), so the time
    the children cover is the sum of their durations. ``per_child`` and
    ``per_span`` remove the tracer's own cost: what a parent pays around
    each child span, and what a span pays inside itself.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    children = np.bincount(parent[has_parent], minlength=duration.size)
    return duration - covered - per_child * children - per_span


def layer_self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray, name: np.ndarray,
    names: Sequence[str], per_child: float = 0.0, per_span: float = 0.0,
) -> dict[str, float]:
    """Total self seconds per span name."""
    own = self_times(start, end, parent, per_child, per_span)
    totals = np.bincount(np.asarray(name, dtype=np.int64), weights=own, minlength=len(names))
    return {label: float(totals[i]) for i, label in enumerate(names)}


def tail_percentile(n_samples: int, min_beyond: int = 10) -> float:
    """Highest candidate percentile with at least ``min_beyond`` samples
    above it; NaN when even the median is not supported."""
    for pct in TAIL_PERCENTILES:
        # the tolerance absorbs binary rounding of e.g. 100 - 99.9
        if n_samples * (100.0 - pct) / 100.0 >= min_beyond - 1e-9:
            return pct
    return math.nan


def due_time_latency(
    t0: float, gaps: np.ndarray, arrival: np.ndarray, response: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop latency from each request's due time, and generator lateness.

    Request ``i`` was due at ``t0 + cumsum(gaps)[i]``; the generator
    actually issued it at ``arrival[i]`` and it finished at
    ``arrival[i] + response[i]`` (NaN response = never finished).
    Returns ``(latency, lateness)`` in the clock's units: a stalled
    generator issues late, and the latency charges that stall to the
    request instead of hiding it.
    """
    due = t0 + np.cumsum(np.asarray(gaps, dtype=np.float64))
    arrival = np.asarray(arrival, dtype=np.float64)
    latency = arrival + np.asarray(response, dtype=np.float64) - due
    return latency, arrival - due


def digest_mismatches(
    expected: Mapping[str, object], actual: Mapping[str, object]
) -> list[str]:
    """Names of the digest fields that differ (missing counts as differing)."""
    fields = sorted(set(expected) | set(actual))
    return [f for f in fields if f not in expected or f not in actual or expected[f] != actual[f]]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
