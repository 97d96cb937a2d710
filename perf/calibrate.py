"""Host-speed unit: a fixed workload timed between simulation cells.

The host this benchmark runs on changes speed by up to 2x, flipping
between a fast and a slow state every fraction of a second, and how
much a piece of code slows depends on what it does.  Each cell is
bracketed by :func:`calibrate` and its wall time is expressed in units
of it.  The unit is shaped like the simulator, so that it slows by
about as much: generator processes on a timer heap sharing one
processor-sharing pool, then scattered reads of a table of small
dicts with tuple allocation and list churn.  On a 2-core KVM host,
ten-seed sets of whole runs normalised by the event loop alone spread
by 5-12%, and by the loop plus the table reads by 2-6% (different
sessions; see ``README.md``).

This module imports nothing from ``repro`` on purpose: if it reused
the simulator's engine or events, a speed-up of those would speed up
the unit too and cancel out of every normalised number.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

JOBS = 200
PHASES = 4
TABLE_ROWS = 30_000
READS = 8_000


class _Loop:
    """Timer heap of ``(when, seq, fn, arg)``; processes are generators
    that yield a float delay or a waiter list to park on."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events = 0
        self._heap: list = []
        self._seq = 0

    def at(self, when: float, fn, arg) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, arg))

    def resume(self, gen) -> None:
        try:
            cmd = next(gen)
        except StopIteration:
            return
        if isinstance(cmd, float):
            self.at(self.now + cmd, self.resume, gen)
        else:
            cmd.append(gen)

    def run(self) -> None:
        heap = self._heap
        while heap:
            self.now, _, fn, arg = heapq.heappop(heap)
            self.events += 1
            fn(arg)


class _Pool:
    """Processor sharing: every active job gets ``rate / n``."""

    def __init__(self, loop: _Loop, rate: float) -> None:
        self.loop = loop
        self.rate = rate
        self._jobs: list = []  # heap of (finish_v, seq, waiters)
        self._v = 0.0
        self._last = 0.0
        self._seq = 0
        self._version = 0

    def _advance(self) -> None:
        now = self.loop.now
        if self._jobs:
            self._v += (now - self._last) * self.rate / len(self._jobs)
        self._last = now

    def _reschedule(self) -> None:
        self._version += 1
        if self._jobs:
            eta = (self._jobs[0][0] - self._v) * len(self._jobs) / self.rate
            self.loop.at(self.loop.now + max(eta, 1e-9), self._timer,
                         self._version)

    def _timer(self, version: int) -> None:
        if version != self._version:
            return
        self._advance()
        done = []
        while self._jobs and self._jobs[0][0] <= self._v + 1e-9:
            done.append(heapq.heappop(self._jobs)[2])
        self._reschedule()
        for waiters in done:
            for gen in waiters:
                self.loop.at(self.loop.now, self.loop.resume, gen)

    def join(self, work: float) -> list:
        self._advance()
        self._seq += 1
        waiters: list = []
        heapq.heappush(self._jobs, (self._v + work, self._seq, waiters))
        self._reschedule()
        return waiters


def _job(pool: _Pool, index: int):
    for phase in range(PHASES):
        yield 20.0 + (index * 7 + phase) % 13
        yield pool.join(100.0 + (index * 37 + phase * 11) % 50)


_table: list = []


def _walk() -> int:
    """Scattered reads of the table, keeping a short list of tuples."""
    if not _table:
        _table.extend({"id": i, "deps": [i, i + 1], "name": f"row{i}"}
                      for i in range(TABLE_ROWS))
    rng = random.Random(2)
    rows = 0
    recent: list = []
    for _ in range(READS):
        row = _table[rng.randrange(TABLE_ROWS)]
        recent.append((row["id"], row["deps"][1], len(row["name"])))
        if len(recent) > 500:
            rows += len(recent)
            recent = []
    return rows + len(recent)


def workload() -> tuple:
    """Run the unit once; returns ``(final clock, events, rows read)``
    so callers can check it did the same work every time."""
    loop = _Loop()
    pool = _Pool(loop, rate=8.0)
    for i in range(JOBS):
        loop.at(float(i % 17), loop.resume, _job(pool, i))
    loop.run()
    return round(loop.now, 6), loop.events, _walk()


def calibrate() -> float:
    """Wall seconds of one run of the unit, with the collector paused.
    The table the unit reads is built on the first call, untimed."""
    if not _table:
        _walk()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        workload()
        return time.perf_counter() - start
    finally:
        gc.enable()
