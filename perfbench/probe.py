"""Machine-speed probe for scaling host times to a reference speed.

The reference machine is shared with other tenants. For tens of
seconds at a time their load makes the same code up to 1.5x slower,
so raw throughput from runs a few minutes apart spreads by 10-35%.
Two fixed kernels slow down with that load: a dependent random walk
over an 8 MB array, bound by memory latency, and a small heap-driven
event loop over slotted objects, bound by the interpreter. The probe is
the geometric mean of their slowdowns against the reference machine.
It is timed before and after every timed phase, and the phase's
seconds are divided by the mean of the two readings.

A phase that runs in this process alone is probed on the CPU the
process is on; a phase that keeps every CPU busy (forked shards, sweep
workers) is probed on each CPU in turn. Scaling the same ten runs of
``audit`` and of ``serve`` three ways, the spread (interquartile range
/ median) of their throughput medians was 0.07-0.10 probed this way,
0.07-0.22 with the walk alone averaged over both CPUs, and 0.10-0.35
unscaled.

Neither kernel touches code under test, so a change to the program
moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import heapq
import os
from array import array
from time import perf_counter

#: Kernel times on the reference machine (2 vCPUs) in its usual state.
WALK_REFERENCE_S = 0.020
LOOP_REFERENCE_S = 0.032

_BITS = 20
_STEPS = 100_000
_EVENTS = 12_000
_NODES = 64
_MAX_CPUS = 4
# x -> (A*x + C) mod 2**_BITS is one cycle through every index
# (Hull-Dobell: C odd, A = 1 mod 4), in an order no prefetcher follows.
_A = 1103515245
_C = 12345


class _Node:
    __slots__ = ("seen", "value")

    def __init__(self) -> None:
        self.seen = {}
        self.value = 0

    def receive(self, sender: int, value: int) -> int:
        self.seen[sender] = value
        if value > self.value:
            self.value = value
        return len(self.seen)


class SpeedProbe:
    """Times the two kernels and reports how much slower than the
    reference machine this one is now."""

    def __init__(self) -> None:
        mask = (1 << _BITS) - 1
        self._chain = array("q", ((_A * x + _C) & mask
                                  for x in range(1 << _BITS)))

    def _walk(self) -> float:
        chain = self._chain
        index = 0
        t0 = perf_counter()
        for _ in range(_STEPS):
            index = chain[index]
        return perf_counter() - t0

    @staticmethod
    def _loop() -> float:
        nodes = [_Node() for _ in range(_NODES)]
        queue = [(0.0, 0, 0, 1)]
        t0 = perf_counter()
        for _ in range(_EVENTS):
            time, seq, node, value = heapq.heappop(queue)
            seen = nodes[node].receive(seq % _NODES, value)
            for step in (1, 7):
                heapq.heappush(queue, (time + (step * 0.37 + seen) % 1.0,
                                       seq * 2 + step,
                                       (node + step * seen) % _NODES,
                                       value + 1))
            if len(queue) > 256:
                queue = queue[:128]
                heapq.heapify(queue)
        return perf_counter() - t0

    def _here(self) -> float:
        return (self._walk() / WALK_REFERENCE_S
                * self._loop() / LOOP_REFERENCE_S) ** 0.5

    def slowdown(self, every_cpu: bool = False) -> float:
        """Slowdown on this process's CPU, or with ``every_cpu`` the
        mean over the CPUs it may run on (the first ``_MAX_CPUS``)."""
        if not every_cpu:
            return self._here()
        cpus = os.sched_getaffinity(0)
        readings = []
        try:
            for cpu in sorted(cpus)[:_MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})
                readings.append(self._here())
        except OSError:
            # Pinning refused: probe wherever the process runs.
            readings = [self._here()]
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(readings) / len(readings)
