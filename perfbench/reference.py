"""A fixed pure-Python reference workload, timed next to the program.

The host this benchmark runs on can change speed by 2x from one second
to the next (other tenants share its cores). Timing this kernel right
before and after each run of the program gives the host's speed at that
moment, and throughput is reported relative to it (see README.md).

The kernel mimics the simulator's instruction mix: a binary-heap event
queue of tuples, small objects with ``__slots__``, method calls, dict
counters, float arithmetic, and a working set of a few megabytes. It
never touches the program under test.
"""

from __future__ import annotations

import heapq
import time

#: kernel runs per second on an idle core of the reference host (2.1 GHz
#: Xeon vCPU, best of 40 runs); throughput is scaled to this speed
REFERENCE_RATE = 9.0


class _Job:
    __slots__ = ("key", "size", "hops")

    def __init__(self, key: int, size: float):
        self.key = key
        self.size = size
        self.hops = 0

    def advance(self, now: float) -> float:
        self.hops += 1
        return now + self.size * (1.0 + (self.hops & 3))


def reference_kernel(events: int = 60_000, table_size: int = 50_000) -> int:
    """Run a fixed little event loop; returns a checksum."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    table = {i: [i, 0.0] for i in range(table_size)}
    x = 12345
    seq = 0
    for i in range(256):
        seq += 1
        push(heap, (i * 1e-3, seq, _Job(i, 1e-3)))
    checksum = 0
    for _ in range(events):
        now, _seq, job = pop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table[x % table_size]
        entry[1] += now
        checksum += entry[0] & 7
        seq += 1
        push(heap, (job.advance(now), seq, job))
    return checksum


def reference_seconds(repeats: int = 3) -> float:
    """Mean seconds per kernel run over ``repeats`` runs made now."""
    started = time.perf_counter()
    for _ in range(repeats):
        reference_kernel()
    return (time.perf_counter() - started) / repeats
