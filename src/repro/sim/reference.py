"""Seed-faithful reference implementations of the simulation core.

This module is a frozen snapshot of the *original* (pre-optimization)
``Engine``/``Process`` and ``ProcessorSharing`` implementations: a
binary heap of ``(time, seq, callback)`` tuples with per-event lambda
closures, and the O(active jobs) rescan formulation of processor
sharing.  It exists solely so the golden-schedule equivalence tests in
``tests/test_determinism.py`` can prove the optimized hot paths
(slotted timer records + ready ring in :mod:`repro.sim.engine`,
virtual-time processor sharing in :mod:`repro.sim.resources`) are
behaviorally identical — same simulated clocks, same event ordering,
same per-task stats.

Do **not** use these classes outside tests: they are deliberately slow
and receive no new features.  Bug fixes that change observable
behavior (e.g. the ``Process.interrupt`` live-count fix) are applied
here too, so the reference stays comparable under
``run_until_idle_processes``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Optional

from repro.sim.engine import Delay
from repro.sim.events import Event

_EPS = 1e-9
_MIN_ETA = 1e-3


class ReferenceProcess:
    """Seed :class:`~repro.sim.engine.Process` (closure-driven)."""

    __slots__ = ("engine", "gen", "name", "alive", "result", "_done", "_waiters")

    def __init__(self, engine: "ReferenceEngine", gen: Generator,
                 name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self._waiters: list = []
        self._done = False

    def _finish(self, result: Any) -> None:
        self.alive = False
        self._done = True
        self.result = result
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake(result)

    def _on_done(self, wake: Callable[[Any], None]) -> None:
        if self._done:
            wake(self.result)
        else:
            self._waiters.append(wake)

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self.alive = False
        self._done = True
        # live-count fix mirrored from the optimized engine: settle the
        # engine's live count here, not at the next (possibly never)
        # scheduled resume.
        self.engine._nlive -= 1
        self.gen.close()
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake(None)


class ReferenceEngine:
    """Seed engine: heap of ``(when, seq, fn)`` tuples, lambda resumes."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []
        self._seq = 0
        self._nlive = 0
        self.event_count = 0

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    def spawn(self, gen: Generator, name: str = "") -> ReferenceProcess:
        proc = ReferenceProcess(self, gen, name)
        self._nlive += 1
        self.call_after(0.0, lambda: self._step(proc, None))
        return proc

    def _step(self, proc: ReferenceProcess, value: Any) -> None:
        if not proc.alive:
            return
        try:
            command = proc.gen.send(value)
        except StopIteration as stop:
            self._nlive -= 1
            proc._finish(stop.value)
            return
        self._dispatch(proc, command)

    def _dispatch(self, proc: ReferenceProcess, command: Any) -> None:
        if isinstance(command, (int, float)):
            self.call_after(float(command), lambda: self._step(proc, None))
        elif isinstance(command, Event):
            if command.fired:
                self.call_after(0.0, lambda: self._step(proc, command.value))
            else:
                command._add_waiter(lambda v: self._step(proc, v))
        elif isinstance(command, Delay):
            self.call_after(command.duration, lambda: self._step(proc, None))
        elif isinstance(command, ReferenceProcess):
            if command._done:
                self.call_after(0.0, lambda: self._step(proc, command.result))
            else:
                command._on_done(lambda v: self._step(proc, v))
        else:
            raise TypeError(
                f"process {proc.name!r} yielded unsupported command: {command!r}"
            )

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        queue = self._queue
        count = 0
        while queue:
            when, _seq, fn = queue[0]
            if until is not None and when > until:
                self.now = until
                break
            heapq.heappop(queue)
            self.now = when
            fn()
            count += 1
            self.event_count += 1
            if max_events is not None and count >= max_events:
                break
        return self.now

    def run_until_idle_processes(self, until: Optional[float] = None) -> float:
        queue = self._queue
        while queue and self._nlive > 0:
            when, _seq, fn = queue[0]
            if until is not None and when > until:
                self.now = until
                break
            heapq.heappop(queue)
            self.now = when
            fn()
            self.event_count += 1
        return self.now

    def timeout(self, delay: float, value: Any = None) -> Event:
        ev = Event()
        self.call_after(delay, lambda: ev.fire(value))
        return ev


class ReferenceProcessorSharing:
    """Seed processor sharing: O(active jobs) rescan per state change."""

    def __init__(
        self,
        engine,
        rate: float,
        per_job_cap: Optional[float] = None,
        name: str = "",
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate = rate
        self.per_job_cap = per_job_cap if per_job_cap is not None else rate
        self.name = name
        self._jobs: Dict[int, list] = {}  # id -> [remaining, Event]
        self._next_id = 0
        self._last_update = 0.0
        self._timer_version = 0
        self._busy_integral = 0.0

    def _job_rate(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 0.0
        return min(self.per_job_cap, self.rate / n)

    def _advance(self) -> None:
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            served = elapsed * self._job_rate()
            for job in self._jobs.values():
                job[0] -= served
            self._busy_integral += elapsed * min(
                self.rate, len(self._jobs) * self.per_job_cap
            )
        self._last_update = now

    def _reschedule(self) -> None:
        self._timer_version += 1
        if not self._jobs:
            return
        version = self._timer_version
        job_rate = self._job_rate()
        shortest = min(job[0] for job in self._jobs.values())
        eta = max(max(shortest, 0.0) / job_rate, _MIN_ETA)
        self.engine.call_after(eta, lambda: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return
        self._advance()
        finished = [
            (jid, job) for jid, job in self._jobs.items() if job[0] <= _EPS
        ]
        for jid, _job in finished:
            del self._jobs[jid]
        self._reschedule()
        for _jid, job in finished:
            job[1].fire(None)

    def consume(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ev = Event()
        if amount == 0:
            ev.fire(None)
            return ev
        self._advance()
        self._next_id += 1
        self._jobs[self._next_id] = [float(amount), ev]
        self._reschedule()
        return ev

    def consume_after(self, delay: float, amount: float) -> Event:
        """Join the pool after a private ``delay``, then consume
        (timing-equivalent to sleeping ``delay`` before ``consume``)."""
        if delay <= 0:
            return self.consume(amount)
        ev = Event()

        def join() -> None:
            self.consume(amount)._add_waiter(ev.fire)

        self.engine.call_after(delay, join)
        return ev

    def _arrive(self, delay: float, amount: float, target,
                k: int = 1) -> None:
        """The optimized pool's internal entry point, so the SMM's warp
        cohorts can drive this pool in the golden swap tests: ``k``
        separate jobs, the first of which fires ``target``."""
        self.consume_after(delay, amount)._add_waiter(target.fire)
        for _ in range(k - 1):
            self.consume_after(delay, amount)

    def _grow(self, delay: float, target) -> bool:
        """Never merge: on this pool every warp is its own cohort, which
        makes the golden swap tests an oracle for cohorts."""
        return False

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def utilization(self) -> float:
        self._advance()
        total = self.engine.now
        if total <= 0:
            return 0.0
        return self._busy_integral / (self.rate * total)
