"""Contended resources: FIFO servers, processor sharing, item stores.

:class:`ProcessorSharing` is the workhorse of the hardware model.  An SMM
issuing warp instructions, the GPU's global-memory crossbar, and the PCIe
link are all "a pool of rate, fairly shared, with a per-customer cap":

- SMM issue: total rate 4 warp-instructions/cycle, at most 1 per warp;
- DRAM: total bytes/ns shared by all resident warps;
- PCIe: total bytes/ns shared by in-flight transfers.

The implementation uses the classic *virtual-time* (fluid-queue)
formulation: instead of rescanning every active job's remaining work on
each arrival and departure (the seed's O(active jobs) cost), the pool
tracks a single virtual clock ``V`` that accumulates per-job service.
A job arriving with ``w`` units of work finishes when ``V`` reaches
``V_arrival + w``, so arrivals are one heap push and departures one
heap pop — O(log n) per state change regardless of churn.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from operator import itemgetter
from typing import Any, Deque, Generator, List, Optional, Tuple

from repro.sim.engine import _CALL, Engine
from repro.sim.events import Event

_EPS = 1e-9
#: sort key of heap entries ``(finish_v, seq, target, k)`` by arrival
_ARRIVAL_ORDER = itemgetter(1)
#: Minimum timer granularity (1 femtosecond at ns units).  Without a
#: floor, a job whose remaining work is just above _EPS on a high-rate
#: pool can compute an ETA smaller than the clock's float ULP — the
#: timer then re-fires at the *same* instant forever (elapsed == 0, no
#: work served).  The floor guarantees forward progress at negligible
#: accuracy cost.
_MIN_ETA = 1e-3


def _check_amount(amount: float) -> None:
    # NaN compares false both ways, so one NaN tag would sit in the
    # heap forever and drag the clock to NaN; an infinite tag never
    # completes
    if not 0 <= amount < math.inf:
        raise ValueError(f"amount must be finite and >= 0, got {amount!r}")


class FifoResource:
    """``capacity`` identical servers with a FIFO wait queue.

    Models things that are either free or busy: CPU cores in the
    PThreads pool, HyperQ hardware connections, the DMA copy engine's
    transaction slot.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that fires when a server is granted."""
        ev = Event()
        if self.request(ev):
            ev.fire(None)
        return ev

    def request(self, waiter) -> bool:
        """Take a server now (True), or queue ``waiter`` — an
        :class:`Event`, or any object with its ``fire(value)`` — to be
        fired when a release hands it one (False)."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        self._waiting.append(waiter)
        return False

    def release(self) -> None:
        """Release one server; hands it straight to the queue head."""
        if self.in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiting:
            self._waiting.popleft().fire(None)
        else:
            self.in_use -= 1

    def use(self, duration: float) -> Generator:
        """Subroutine: hold one server for ``duration``.

        Use as ``yield from resource.use(t)``.  The server is released
        even if the holding process is interrupted mid-hold: the
        engine's ``gen.close()`` raises ``GeneratorExit`` at the
        ``yield``, and the ``finally`` hands the server back (the seed
        leaked it, starving every later acquirer).
        """
        yield self.acquire()
        try:
            yield duration
        finally:
            self.release()

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for a server."""
        return len(self._waiting)


#: Rebase threshold for the virtual clock.  Remaining work is computed
#: as ``finish_v - V``; once ``V`` grows large the subtraction loses
#: absolute precision (catastrophic cancellation), so when ``V`` passes
#: this bound every queued finish tag is shifted down by ``V`` and the
#: clock restarts at zero.  At 2**20 the worst-case absolute error of a
#: shifted tag is ~2**-33, far below ``_EPS``.  The shift is uniform
#: and monotone, so heap order is preserved.
_REBASE_V = float(2 ** 20)


class ProcessorSharing:
    """A pool of service rate, fairly shared, with a per-job rate cap.

    ``rate`` is work units per time unit for the whole pool; each job
    receives ``min(per_job_cap, rate / n_active)``.  ``consume(amount)``
    returns an event that fires when the job's work has been served.

    Internally this is the classic virtual-time fluid queue: because
    every active job receives the *same* instantaneous rate, the pool
    only needs one cumulative per-job service clock ``V`` (``dV/dt =
    min(cap, rate/n)``).  A job arriving when the clock reads ``V`` with
    ``w`` units of work is tagged ``finish_v = V + w`` and completes
    when ``V`` reaches its tag; a min-heap on the tags yields the next
    completion.  Arrivals and departures are O(log n) — the seed
    implementation rescanned all active jobs on every state change,
    which was quadratic under churn.  Completion *order* and timer
    semantics (``_MIN_ETA`` forward-progress floor, grouped completions
    within ``_EPS``, arrival-order firing) match the seed exactly.

    A heap entry may stand for several jobs: ``(finish_v, seq, target,
    k)`` is ``k`` jobs with the same finish tag and the consecutive
    arrival ids ``seq .. seq + k - 1``, completed by one
    ``target.fire(None)``.  The job count ``_n`` (not the heap length)
    sets the per-job rate, so a weight-``k`` entry is served exactly
    like ``k`` singleton entries — the like warps of one block
    (:meth:`repro.gpu.smm.Smm.run_phases`) travel as one entry, grown
    by :meth:`_grow` one warp at a time or, for a gang in lockstep,
    arrived (or grown) as ``k`` at once.
    """

    def __init__(
        self,
        engine: Engine,
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
        #: min-heap of (finish_v, seq, target, k); seq breaks ties in
        #: arrival order, and ``target.fire(None)`` runs once the
        #: entry's ``k`` jobs are served
        self._heap: List[Tuple[float, int, Any, int]] = []
        #: active jobs: the sum of the heap entries' weights
        self._n = 0
        #: same-instant deferred arrivals being coalesced, keyed by
        #: absolute arrival time, as ``[(amount, target, k), ...]``
        #: (see :meth:`consume_after`)
        self._arrivals: dict = {}
        self._v = 0.0  # virtual time: cumulative per-job service
        self._next_id = 0
        self._last_update = 0.0
        self._timer_version = 0
        # time-weighted busy integral for utilization reporting
        self._busy_integral = 0.0
        #: the timer and join callbacks, bound once: their engine
        #: records carry the timer version or the join instant as the
        #: record's value (``_CALL``), so a record allocates only its
        #: tuple
        self._timer_cb = self._on_timer
        self._join_cb = self._join

    # -- internal -------------------------------------------------------------

    def _advance(self) -> None:
        """Advance the virtual clock by the elapsed per-job service.

        ``x if x < y else y`` picks what ``min(y, x)`` picks (``min``
        keeps its first argument unless a later one is smaller), so
        these comparisons give the same floats as two ``min`` calls.
        :meth:`_on_timer` and :meth:`_join` inline this body.
        """
        now = self.engine.now
        elapsed = now - self._last_update
        n = self._n
        if elapsed > 0 and n:
            cap = self.per_job_cap
            rate = self.rate
            pooled = rate / n
            self._v += elapsed * (pooled if pooled < cap else cap)
            busy = n * cap
            self._busy_integral += elapsed * (busy if busy < rate else rate)
        self._last_update = now

    def _rebase(self) -> None:
        """Shift all finish tags down by ``V`` and restart the clock."""
        v = self._v
        self._heap = [(fv - v, seq, target, k)
                      for fv, seq, target, k in self._heap]
        self._v = 0.0

    def _reschedule(self) -> None:
        self._timer_version = version = self._timer_version + 1
        heap = self._heap
        if not heap:
            self._v = 0.0  # idle pool: cheap exact rebase
            return
        v = self._v
        if v > _REBASE_V:
            self._rebase()
            heap = self._heap
            v = 0.0
        shortest = heap[0][0] - v
        if shortest < 0.0:
            shortest = 0.0
        job_rate = self.per_job_cap
        pooled = self.rate / self._n
        if pooled < job_rate:
            job_rate = pooled
        eta = shortest / job_rate
        if eta < _MIN_ETA:
            eta = _MIN_ETA
        # inlined engine._push of a _CALL record: one heap insert whose
        # value is the timer version, so it allocates only its tuple
        # (this is the single hottest timer in the simulator — every
        # PS arrival and departure lands here); this is the only place
        # that arms a timer
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heapq.heappush(
            engine._queue,
            (engine.now + eta, seq, _CALL, self._timer_cb, version),
        )

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # stale timer; a newer reschedule superseded it
        # inlined _advance: the timer only fires while jobs are active
        now = self.engine.now
        elapsed = now - self._last_update
        heap = self._heap
        n = self._n
        v = self._v
        if elapsed > 0 and n:
            cap = self.per_job_cap
            rate = self.rate
            pooled = rate / n
            self._v = v = v + elapsed * (pooled if pooled < cap else cap)
            busy = n * cap
            self._busy_integral += elapsed * (busy if busy < rate else rate)
        self._last_update = now
        threshold = v + _EPS
        if not heap or heap[0][0] > threshold:
            self._reschedule()
            return
        job = heapq.heappop(heap)
        self._n -= job[3]
        if not heap or heap[0][0] > threshold:
            self._reschedule()
            job[2].fire(None)
            return
        finished = [job]
        while heap and heap[0][0] <= threshold:
            job = heapq.heappop(heap)
            self._n -= job[3]
            finished.append(job)
        self._reschedule()
        # fire in arrival order (the seed iterated its job dict in
        # insertion order), not in finish-tag order; an entry's ids are
        # consecutive, so its first id orders it among the others
        finished.sort(key=_ARRIVAL_ORDER)
        for _fv, _seq, target, _k in finished:
            target.fire(None)

    def _arrive(self, delay: float, amount: float, target,
                k: int = 1) -> None:
        """Join ``k`` jobs of ``amount`` work each after ``delay``; call
        ``target.fire(None)`` once they have been served.

        The engine of :meth:`consume` and :meth:`consume_after`, for
        callers that validated their arguments.  ``target`` is anything
        with a ``fire(value)`` method — an :class:`Event`, or the lead
        warp of a cohort, which carries the cohort's warps to their next
        stage (:meth:`repro.gpu.smm.Smm.run_phases`).
        """
        engine = self.engine
        if delay == 0:
            if amount == 0:
                target.fire(None)
                return
            if self._heap:
                self._advance()
            else:
                # empty pool: V is already 0 (idle rebase) and no
                # service accrued since _last_update — skip the fp
                # bookkeeping
                self._last_update = engine.now
            heapq.heappush(self._heap, (self._v + float(amount),
                                        self._next_id + 1, target, k))
            self._next_id += k
            self._n += k
            self._reschedule()
            return
        # Arrivals landing at the same future instant are coalesced into
        # one engine callback and one timer reschedule: sibling warps of
        # a threadblock are dispatched together and issue identical
        # latency-then-demand patterns, so batching their pool entries
        # removes most of the PS timer churn without changing a single
        # finish tag (same arrival instant, same arrival order).
        when = engine.now + delay
        batch = self._arrivals.get(when)
        if batch is not None:
            batch.append((float(amount), target, k))
            return
        batch = [(float(amount), target, k)]
        self._arrivals[when] = batch
        engine._seq += 1
        heapq.heappush(engine._queue,
                       (when, engine._seq, _CALL, self._join_cb, when))

    def _grow(self, delay: float, target, k: int = 1) -> bool:
        """Count ``k`` more jobs into ``target``'s pending arrival.

        Succeeds only if the deferred arrival batch landing after
        ``delay`` ends with ``target``: the new jobs then take the next
        arrival ids, exactly as ``k`` separate ``_arrive`` calls of the
        same amount would.  Returns whether it did.
        """
        batch = self._arrivals.get(self.engine.now + delay)
        if batch is None or not delay:
            return False
        amount, last, joined = batch[-1]
        if last is not target:
            return False
        batch[-1] = (amount, target, joined + k)
        return True

    def _join(self, when: float) -> None:
        """Enter the coalesced batch of deferred arrivals due at
        ``when``."""
        batch = self._arrivals.pop(when)
        heap = self._heap
        now = self.engine.now
        v = self._v
        if heap:
            # inlined _advance
            elapsed = now - self._last_update
            n = self._n
            if elapsed > 0 and n:
                cap = self.per_job_cap
                rate = self.rate
                pooled = rate / n
                self._v = v = v + elapsed * (pooled if pooled < cap else cap)
                busy = n * cap
                self._busy_integral += elapsed * (
                    busy if busy < rate else rate)
        self._last_update = now
        for amt, target, k in batch:
            if amt == 0.0:
                target.fire(None)
                continue
            heapq.heappush(heap, (v + amt, self._next_id + 1, target, k))
            self._next_id += k
            self._n += k
        self._reschedule()

    # -- public ---------------------------------------------------------------

    def consume(self, amount: float) -> Event:
        """Submit ``amount`` units of work; event fires when served."""
        _check_amount(amount)
        ev = Event()
        self._arrive(0, amount, ev)
        return ev

    def consume_after(self, delay: float, amount: float) -> Event:
        """Join the pool after a private ``delay``, then consume.

        Timing-equivalent to ``yield delay`` followed by ``yield
        consume(amount)``, but the waiting process parks on one event
        for the whole span — the intermediate wake existed only to
        issue the second yield.  Used for fixed issue/access latencies
        that immediately precede a contended service demand.  A zero
        ``delay`` joins now; a negative one raises, as scheduling in
        the past does on the engine.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        _check_amount(amount)
        ev = Event()
        self._arrive(delay, amount, ev)
        return ev

    @property
    def active_jobs(self) -> int:
        """Jobs currently receiving service."""
        return self._n

    def utilization(self) -> float:
        """Fraction of the pool's rate used, averaged over elapsed time."""
        self._advance()
        total = self.engine.now
        if total <= 0:
            return 0.0
        return self._busy_integral / (self.rate * total)

    def served_integral(self) -> float:
        """Total work units actually served so far — the utilization
        numerator, exposed so callers can normalise over their own
        horizon (a report's makespan) instead of ``engine.now``."""
        self._advance()
        return self._busy_integral


class Store:
    """Unbounded FIFO item queue with blocking consumers.

    GeMTC's single task FIFO and the host-side spawn queues are Stores.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event whose value is the next item."""
        ev = Event()
        if self._items:
            ev.fire(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
