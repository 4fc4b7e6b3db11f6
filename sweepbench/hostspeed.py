"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed swings by a third or
more, over seconds and over minutes, and every timing of the program
swings with it. So a fixed pure-Python kernel, which uses nothing from
the program, is timed right before and right after each timed sweep
(and each set-up). A sweep's seconds are then scaled by
``REFERENCE_S`` over the mean of the kernel's two times: the result is
the sweep's time on a host that runs the kernel in ``REFERENCE_S``.

A workload that keeps two CPUs busy (the forked pool, the cluster's
server and worker) is slowed by either CPU's slow spells, so for it the
kernel runs on two CPUs at once and the slower run counts.

A change to the program moves the sweeps and not the kernel, so it
moves the scaled figures in full. A slow spell of the host moves both
and mostly cancels.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter

#: A typical kernel time on the 2-vCPU shared VM the benchmark was tuned
#: on, where its median over a run ranged from 0.057 to 0.094 s. Only the
#: figures' scale depends on it, not their spread.
REFERENCE_S = 0.085

#: Sweeps shorter than this share the kernel run before them with the
#: sweeps that follow, up to this many seconds later.
INTERVAL_S = 1.0


class _Node:
    __slots__ = ("a", "b", "next")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.next: _Node | None = None

    def step(self, acc: int) -> int:
        return (acc + (self.a ^ self.b)) & 0xFFFFF


_NODES = [_Node(i, 3 * i) for i in range(20000)]
for _i, _node in enumerate(_NODES):
    _node.next = _NODES[(_i * 7919 + 13) % len(_NODES)]
_TABLE = dict.fromkeys(range(4096), 0)


def kernel() -> int:
    """Fixed work: an integer loop, then a pointer chase over slotted
    objects with a method call and a dict update per step. It allocates
    no containers, so the garbage collector never runs inside it."""
    acc = 0
    for i in range(600_000):
        acc += i * i
    node, table = _NODES[0], _TABLE
    for _ in range(100_000):
        acc = node.step(acc)
        key = acc & 4095
        table[key] = table[key] + 1
        node = node.next
    return acc


def _timed_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def _helper(conn) -> None:
    """Runs the kernel each time the parent asks, until told to stop."""
    while conn.recv():
        conn.send(_timed_kernel())


class HostClock:
    """Kernel times taken next to timed work, and the scale they give.
    With ``cpus`` > 1 it keeps ``cpus - 1`` helper processes that run the
    kernel alongside this one; ``close`` stops them."""

    def __init__(self, cpus: int = 1) -> None:
        #: (start, end, seconds) of every kernel run, in ``perf_counter``
        #: seconds; ``seconds`` is the slowest of the parallel runs.
        self.runs: list[tuple[float, float, float]] = []
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(cpus - 1):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((conn, proc))

    def sample(self) -> None:
        t0 = perf_counter()
        for conn, _ in self._helpers:
            conn.send(True)
        seconds = _timed_kernel()
        for conn, _ in self._helpers:
            seconds = max(seconds, conn.recv())
        self.runs.append((t0, perf_counter(), seconds))

    def close(self) -> None:
        for conn, proc in self._helpers:
            conn.send(False)
            proc.join()
            conn.close()
        self._helpers = []

    def due(self) -> bool:
        """Whether the last kernel run is more than ``INTERVAL_S`` old."""
        return not self.runs or perf_counter() - self.runs[-1][1] >= INTERVAL_S

    def scale(self, t0: float, t1: float) -> float:
        """Factor for work timed over ``[t0, t1]``: ``REFERENCE_S`` over
        the mean time of the last kernel run before it and the first
        after it."""
        before = [s for start, end, s in self.runs if end <= t0]
        after = [s for start, end, s in self.runs if start >= t1]
        return 2 * REFERENCE_S / (before[-1] + after[0])

    def median_s(self) -> float:
        times = sorted(s for _, _, s in self.runs)
        return times[len(times) // 2]
