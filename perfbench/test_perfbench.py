"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    digest_mismatches,
    due_time_latency,
    layer_self_times,
    self_times,
    tail_percentile,
)
from tracer import Tracer


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    totals = layer_self_times(start, end, parent, [0, 1, 1, 2], ["sim", "core", "net"])
    assert totals == {"sim": 3.0, "core": 3.0, "net": 4.0}
    # self times of a tree always add up to the roots' wall time
    assert sum(totals.values()) == 10.0


def test_self_time_leaves_out_tracer_cost():
    start, end, parent = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    own = self_times(start, end, parent, per_child=0.5, per_span=0.25)
    # root has two children, a has one, b and c none
    assert own.tolist() == [3.0 - 1.0 - 0.25, 2.0 - 0.5 - 0.25, 1.0 - 0.25, 4.0 - 0.25]


def test_tracer_spans_nest_and_restore_patched_methods():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.patch_methods(Layer, "core", ["outer"])
    tracer.patch_methods(Layer, "net", ["inner"])
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["inner"] is original
    assert list(tracer.parent) == [-1, 0]
    assert [tracer.names[i] for i in tracer.name] == ["core", "net"]
    seconds = tracer.self_seconds()
    assert seconds["core"] > 0 and seconds["net"] > 0
    assert math.isclose(seconds["core"] + seconds["net"], tracer.end[0] - tracer.start[0])


@pytest.mark.parametrize(
    "n, expected",
    [
        (100_000, 99.99),  # 10 samples beyond p99.99
        (99_999, 99.9),
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 90.0),
        (100, 90.0),
        (20, 50.0),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_unsupported_sample():
    assert math.isnan(tail_percentile(19))


def test_due_time_latency_charges_generator_stalls():
    gaps = np.array([1.0, 1.0, 1.0])  # due at t0 + 1, 2, 3
    t0 = 100.0
    # the generator stalled: request 1 went out 0.5 late, request 2 on time
    arrival = np.array([101.0, 102.5, 103.0])
    response = np.array([0.25, 0.25, np.nan])  # the last never finished
    latency, lateness = due_time_latency(t0, gaps, arrival, response)
    assert latency[:2].tolist() == [0.25, 0.75]
    assert math.isnan(latency[2])
    assert lateness.tolist() == [0.0, 0.5, 0.0]


def test_digest_mismatch_names_the_changed_field():
    recorded = {"sim_p50_ms": 48.0, "events_executed": 264636, "message_counts.poll": 60000}
    assert digest_mismatches(recorded, dict(recorded)) == []
    changed = dict(recorded, **{"message_counts.poll": 60001})
    assert digest_mismatches(recorded, changed) == ["message_counts.poll"]
    extra = dict(recorded, **{"message_counts.reject": 3})
    assert digest_mismatches(recorded, extra) == ["message_counts.reject"]
