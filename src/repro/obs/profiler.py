"""The sim profiler: per-process event counts and virtual-time tallies.

``gem5``-style standardized stats start with knowing *where the events
go*: which processes the engine spends its queue on, and which consume
the virtual timeline.  The profiler answers both deterministically —
two identical runs produce identical reports — because it counts
resumes and integrates the simulated clock, never the wall clock.

Mechanism: :meth:`repro.sim.Engine.spawn` checks its ``profiler``
attribute and, when one is attached, wraps the spawned generator in
:meth:`SimProfiler.wrap`.  The wrapper is a pass-through generator that
forwards every yielded command untouched (so the engine's
``type(command) is float`` fast path still fires) and tallies, per
process name:

- **events** — how many times the engine resumed the process;
- **vtime_ns** — total simulated time the process spent blocked or
  sleeping between resumes (the virtual time its waits consumed).

It also records the peak heap depth seen at resume time, the
"how deep does the timer queue get" number a future engine change
would want to compare against.

When no profiler is attached (the default), ``spawn`` pays one ``is
None`` test and the run loop is byte-for-byte the uninstrumented one.

Only generator processes get rows.  Warps are not processes (the SMM
carries them), and neither is anything on the Pagoda path: the PCIe
transfers, the TaskTable copy-backs, ``PagodaHost``'s spawn, post and
collector, ``run_pagoda``'s spawner and the MTB scheduler warps are
callback objects (:class:`repro.sim.engine.Op`) that ``spawn`` starts
without a wrapper.  A ``run_pagoda`` run therefore reports no process
at all; serve and the baselines still show their dispatcher, collector
and worker processes.
"""

from __future__ import annotations

from typing import Dict, Generator, List


class ProcStat:
    """Tallies for all processes sharing one name."""

    __slots__ = ("name", "events", "vtime_ns", "spawns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.events = 0
        self.vtime_ns = 0.0
        self.spawns = 0


class SimProfiler:
    """Deterministic per-process accounting, aggregated by name prefix.

    Names are aggregated at full precision (``sched.mtb3`` stays
    distinct from ``sched.mtb4``); the report's top-N is sorted by
    events executed, ties broken by name so the ordering is total.
    Only processes are counted: warps and the callback objects of the
    Pagoda path are not processes, so their records show in no row.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, ProcStat] = {}
        self.heap_peak = 0

    def _stat(self, name: str) -> ProcStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = ProcStat(name)
        return stat

    def wrap(self, gen: Generator, name: str, engine) -> Generator:
        """Instrumenting pass-through around a process generator."""
        stat = self._stat(name)
        stat.spawns += 1
        return self._run(gen, stat, engine)

    def _run(self, gen: Generator, stat: ProcStat, engine) -> Generator:
        queue = engine._queue
        send = gen.send
        value = None
        try:
            while True:
                try:
                    command = send(value)
                except StopIteration as stop:
                    return stop.value
                stat.events += 1
                depth = len(queue)
                if depth > self.heap_peak:
                    self.heap_peak = depth
                before = engine.now
                value = yield command
                stat.vtime_ns += engine.now - before
        finally:
            # interrupt() closes the wrapper; the wrapped generator
            # must be torn down with it or its finally blocks leak
            gen.close()

    # -- reporting ------------------------------------------------------------

    def top(self, n: int = 10) -> List[ProcStat]:
        """Top-``n`` process names by events executed (name-tiebroken)."""
        ranked = sorted(self.stats.values(),
                        key=lambda s: (-s.events, s.name))
        return ranked[:n]

    def report(self, n: int = 10) -> dict:
        """JSON-ready digest: top-N rows plus totals and heap depth."""
        return {
            "processes": len(self.stats),
            "heap_peak": self.heap_peak,
            "total_events": sum(s.events for s in self.stats.values()),
            "top": [
                {
                    "name": s.name,
                    "spawns": s.spawns,
                    "events": s.events,
                    "vtime_ns": round(s.vtime_ns, 3),
                }
                for s in self.top(n)
            ],
        }
