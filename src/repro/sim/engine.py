"""Event loop, simulated clock, and coroutine processes.

The engine is deliberately minimal: a priority queue of *slotted timer
records* and a cooperative process abstraction on top.  A process is a
Python generator; each ``yield`` hands control back to the engine
together with a *command* describing when to resume:

- a ``float``/``int`` or :class:`Delay` — resume after that much
  simulated time;
- an :class:`~repro.sim.events.Event` — resume when the event fires (the
  event's value becomes the value of the ``yield`` expression);
- a :class:`Process` — resume when that process terminates (join).

Subroutines are plain generators invoked with ``yield from``; no extra
machinery is needed, which keeps the per-event overhead low (the whole
reproduction pushes millions of events through this loop).

The per-task operations of the Pagoda path are not processes but
*callback objects* (:class:`Op`): the PCIe transfers, the TaskTable
copy-backs and state pushes, ``PagodaHost``'s spawn, post, tail
finalization and collector, ``run_pagoda``'s spawner and the MTB
scheduler warps (the executor warps are callbacks of their own).  An
operation pushes the record a process would have pushed, at the same
``(when, seq)`` slot, as a ``_CALL`` of its next step with itself as
the value, and it is joinable and ``yield from``-able like a process,
so every digest and event count is the one a process would give.

Hot-path design (the fast paths that make paper-scale runs practical):

- **Slotted timer records.**  Heap entries are plain 5-tuples
  ``(when, seq, kind, payload, value)``.  ``kind`` is one of two: a
  bare callback (``payload()``) or a one-argument call
  (``payload(value)``).  A process is its own one-argument wake
  callback, so its resume is a call record too, and neither a resume
  nor a callback that needs one value (a processor-sharing timer's
  version, a join's instant, a warp's id) allocates a closure: the
  record's tuple is the only object — the seed implementation paid
  one closure plus one 3-tuple per event.  ``seq`` is unique, so heap
  comparisons never reach the non-comparable payload.  Only
  ``repro.sim`` builds records; every other layer schedules through
  the :class:`Engine` methods and :meth:`Op._after`.
- **Ready ring.**  Zero-delay wakeups — process and operation
  spawns, joins on already-finished processes, bounces through
  already-fired events and :meth:`Engine.call_soon` /
  :meth:`Engine.call_soon_with` callbacks — skip
  the heap entirely and
  go onto a FIFO deque of ``(seq, kind, payload, value)`` records at
  the *current* instant.
  The run loop merges ring and heap by the global ``(when, seq)``
  order (ring entries all carry ``when == now``), so observable event
  ordering is bit-identical to the seed's all-heap behaviour while
  same-timestamp wakeups cost O(1) instead of O(log n).
- **One resume path.**  :meth:`Process.__call__` is the only code
  that sends into a process's generator, whether a record, an event
  fire or a join wakes it.  It dispatches the yielded command
  branch-first, testing ``type(command) is float`` first — the
  overwhelmingly common numeric-delay case pays a single pointer
  compare.  Warps are not processes (the SMM carries them), so event
  waits are rare enough for :meth:`Engine._dispatch_slow`.
- **One run loop.**  ``run`` and ``run_until`` both drain through
  :meth:`Engine._drain`, one record at a time in global ``(when,
  seq)`` order.  A bound (``until``, ``max_events``) only stops the
  loop between records, so the undispatched records stay queued where they were and
  a later drain resumes in exactly the original order
  (docs/INTERNALS.md §10).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.events import Event

#: ``kind`` values for slotted timer records.
_FN = 0    # payload is a zero-argument callable
_CALL = 1  # payload is a one-argument callable (a Process among them);
           # call it with ``value``

_INF = float("inf")


class DeadlockError(RuntimeError):
    """The event queue drained while non-daemon processes were still
    blocked — nothing can ever wake them.

    The message names each blocked process and the event/process it
    waits on, so a wedged run points at its culprit instead of
    returning silently with work undone.  Daemon processes (scheduler
    warps, dispatch loops) are expected to outlive the queue and are
    exempt.
    """

    def __init__(self, blocked: list) -> None:
        self.blocked = list(blocked)
        lines = [
            f"  {proc.name!r} waiting on {proc.waiting_on!r}"
            for proc in self.blocked
        ]
        super().__init__(
            "event queue drained with "
            f"{len(self.blocked)} process(es) still blocked:\n"
            + "\n".join(lines)
        )


class Delay:
    """Explicit wrapper for a pure time delay command.

    Yielding a bare number does the same thing; the wrapper exists for
    readability at call sites where a variable could be mistaken for an
    event.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {duration!r}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.duration!r})"


class Process:
    """A coroutine being driven by the engine.

    Terminates when the generator returns or raises ``StopIteration``;
    the generator's return value becomes :attr:`result`.  Other processes
    can join by yielding the process object.
    """

    __slots__ = ("engine", "gen", "name", "alive", "result", "_waiters",
                 "daemon", "waiting_on", "error")

    def __init__(self, engine: "Engine", gen: Optional[Generator],
                 name: str = "", daemon: bool = False) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self._waiters: list = []
        #: daemon processes (scheduler warps, dispatch loops) may still
        #: be blocked when the queue drains without it being a deadlock.
        self.daemon = daemon
        #: the Event/Process this process last blocked on (diagnostic;
        #: meaningful only while blocked — timer waits never deadlock
        #: because their resume record keeps the queue non-empty).
        self.waiting_on: Any = None
        #: the exception an :class:`Op` finished with (a process's own
        #: exception escapes the run loop instead).
        self.error: Optional[BaseException] = None

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.engine._live.discard(self)
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for wake in waiters:
                wake(result)

    def _on_done(self, wake: Callable[[Any], None]) -> None:
        if not self.alive:
            wake(self.result)
        else:
            self._waiters.append(wake)

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Kill the process.  Used to tear down daemon loops at the end
        of an experiment (e.g. the MasterKernel's scheduler warps)."""
        if not self.alive:
            return
        self.alive = False
        engine = self.engine
        engine.kill_epoch += 1
        engine._live.discard(self)
        if self.gen is not None:
            self.gen.close()
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake(None)

    def __call__(self, value: Any = None) -> None:
        """Wake the process with ``value``.

        A process doubles as its own wake callback: the engine enrolls
        the process object directly as an event/join waiter instead of
        allocating a closure per wait, and its timer, spawn and bounce
        records are ``_CALL`` records with the process as payload.  This
        is the one resume path: every record, event fire and join that
        wakes a process lands in this frame.
        """
        if not self.alive:
            return  # interrupted
        engine = self.engine
        try:
            command = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if type(command) is float:
            if not command >= 0.0:  # also rejects NaN
                raise ValueError(f"delay must be >= 0, got {command!r}")
            engine._seq = seq = engine._seq + 1
            heappush(
                engine._queue,
                (engine.now + command, seq, _CALL, self, None),
            )
        else:
            engine._dispatch_slow(self, command)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Op(Process):
    """A joinable operation run as engine records, not as a generator.

    The host pipeline (PCIe transfers, copy-backs, ``taskSpawn``, the
    spawner and collector) and the MTB scheduler warps are callback
    objects of this kind: each wait pushes the record a process would
    have pushed, at the same ``(when, seq)`` slot, but the record is a
    ``_CALL`` of the operation's next step with the operation as its
    value, so no generator is resumed and no closure is built.

    An operation is a :class:`Process` to everything that joins one:

    - ``yield op`` joins it (:meth:`Engine._dispatch_slow`), and
      :meth:`Engine.spawn` starts it by a ready-ring ``_CALL`` record
      at the slot a spawned process would start at;
    - ``yield from op`` runs its first segment inline, as a
      subgenerator would, then joins it; the operation's result is the
      value of the ``yield from``, and an error it finished with is
      raised there (:meth:`__iter__` is the one generator involved: a
      joiner's, not the operation's);
    - finishing wakes every joiner inline, as a process's return does.

    A subclass calls ``Process.__init__(self, engine, None, name)``,
    implements :meth:`_begin` (the first segment, run once: by
    ``spawn``, by ``yield from`` or by a joining operation) and ends
    with :meth:`_finish` or :meth:`_fail`.  Steps that a record or a
    waiter calls check :attr:`alive` when the operation can be
    interrupted.
    """

    __slots__ = ()

    def _begin(self) -> None:
        """Run the first segment (up to the first wait or the end)."""
        raise NotImplementedError

    def _after(self, delay: float, step: Callable[["Op"], None]) -> None:
        """Call ``step(self)`` after ``delay``: the timer record a
        process's ``yield delay`` pushes, at the same slot."""
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heappush(engine._queue, (engine.now + delay, seq, _CALL, step, self))

    def _join(self, child: "Op", wake: Callable[[Any], None]) -> bool:
        """Start ``child`` inline, as ``yield from child`` does, and
        call ``wake(result)`` when it finishes; returns True (and
        enrols nothing) when it finished at once."""
        self.waiting_on = child
        if child.alive:  # a finished one has nothing to run
            child._begin()
        if not child.alive:
            return True
        child._waiters.append(wake)
        return False

    def _fail(self, exc: BaseException) -> None:
        """Finish with ``exc``: joiners see it raised at their ``yield
        from``; with no joiner it propagates, as an exception escaping
        a process does."""
        self.error = exc
        waiters = self._waiters
        self._finish(None)
        if not waiters:
            raise exc

    def __iter__(self) -> Generator:
        # ``yield from op``: the first segment runs inline, then the
        # joiner waits on the operation itself (a join) and gets its
        # result, or its error raised
        self._begin()
        if self.alive:
            yield self
        if self.error is not None:
            raise self.error
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<{type(self).__name__} {self.name} {state}>"


class Engine:
    """Discrete-event loop with a monotonically advancing clock.

    Time units are nanoseconds by convention throughout the
    reproduction (one Titan X cycle at 1 GHz == 1 ns), but the engine
    itself is unit-agnostic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []    # heap of (when, seq, kind, payload, value)
        self._ready: deque = deque()  # ring of (seq, kind, payload, value)
        self._seq = 0
        #: every live process (for the deadlock reporter).
        self._live: set = set()
        self.event_count = 0
        #: bumped by every kill (:meth:`Process.interrupt`, and an
        #: executor warp's ``alive`` cleared by ``Mtb.shutdown`` or
        #: ``Mtb.fail_entry``): a lockstep warp cohort
        #: (:mod:`repro.gpu.smm`) looks for killed warps only once it
        #: has moved
        self.kill_epoch = 0

    # -- low-level scheduling -------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when``."""
        if not when >= self.now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {when!r}: the clock is at {self.now}")
        self._push(when, _FN, fn, None)

    def call_at_with(self, when: float, fn: Callable[[Any], None],
                     value: Any) -> None:
        """Run ``fn(value)`` at absolute simulated time ``when``.

        One ``_CALL`` record, pushed here: a caller that binds ``fn``
        once and passes its argument as ``value`` builds no closure per
        call.  Rejects NaN and past instants as :meth:`call_at` does.
        """
        if not when >= self.now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {when!r}: the clock is at {self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, _CALL, fn, value))

    def _push(self, when: float, kind: int, payload: Any, value: Any) -> None:
        """Schedule one slotted record at ``when``.

        The per-event hot paths (:meth:`Process.__call__`,
        :meth:`Op._after`, :meth:`call_at_with`, :meth:`call_after`,
        ``ProcessorSharing``) inline this body, each for its one record
        kind, instead of calling it.
        """
        self._seq += 1
        heappush(self._queue, (when, self._seq, kind, payload, value))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated time units: one
        ``_FN`` record pushed here, so an SMM sleep is one frame.
        Rejects NaN and negative delays as :meth:`call_at` does."""
        now = self.now
        when = now + delay
        if not when >= now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {when!r}: the clock is at {now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, _FN, fn, None))

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` now, after every record already due (a spawn's slot)."""
        self._seq += 1
        self._ready.append((self._seq, _FN, fn, None))

    def call_soon_with(self, fn: Callable[[Any], None], value: Any) -> None:
        """Run ``fn(value)`` now, after every record already due: the
        ready-ring twin of :meth:`call_at_with` (the bounce a wait on a
        fired event or a finished join takes, or a spawn's slot)."""
        self._seq = seq = self._seq + 1
        self._ready.append((seq, _CALL, fn, value))

    # -- processes ------------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "",
              daemon: bool = False) -> Process:
        """Start a generator as a process on the next engine step.

        ``daemon`` marks forever-loops (scheduler warps, dispatchers)
        that are *expected* to still be blocked when the queue drains;
        the deadlock reporter ignores them.

        An :class:`Op` is started instead, by a ready-ring ``_CALL``
        record at the same slot; it is no process.
        """
        if isinstance(gen, Op):
            if name:
                gen.name = name
            if daemon:
                gen.daemon = True
            self._live.add(gen)
            # call_soon_with inlined: every PCIe transfer starts here
            self._seq = seq = self._seq + 1
            self._ready.append((seq, _CALL, type(gen)._begin, gen))
            return gen
        proc = Process(self, gen, name, daemon)
        self._live.add(proc)
        self.call_soon_with(proc, None)
        return proc

    def _dispatch_slow(self, proc: Process, command: Any) -> None:
        """Dispatch every non-``float`` yield command."""
        if isinstance(command, Event):
            if command.fired:
                # Bounce through the ready ring: waiting on a long chain
                # of already-fired events must not recurse the C stack.
                self.call_soon_with(proc, command.value)
            else:
                proc.waiting_on = command
                command._add_waiter(proc)
        elif isinstance(command, Process):  # also an Op
            if not command.alive:
                self.call_soon_with(proc, command.result)
            else:
                proc.waiting_on = command
                command._on_done(proc)
        elif isinstance(command, (int, float)):
            # int, bool, and float subclasses (e.g. numpy.float64)
            if not command >= 0:  # also rejects NaN
                raise ValueError(f"delay must be >= 0, got {command!r}")
            self._push(self.now + float(command), _CALL, proc, None)
        elif isinstance(command, Delay):
            self._push(self.now + command.duration, _CALL, proc, None)
        else:
            raise TypeError(
                f"process {proc.name!r} yielded unsupported command: {command!r}"
            )

    # -- run loop -------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            raise_on_deadlock: bool = False) -> float:
        """Drain the event queue.

        Stops when the queue is empty, when the clock would pass
        ``until``, or after ``max_events`` callbacks (a runaway guard for
        tests).  Returns the final clock value.  An ``until`` earlier
        than the clock raises :class:`ValueError`: time never runs
        backwards.

        With ``raise_on_deadlock``, a drained queue that leaves
        non-daemon processes blocked raises :class:`DeadlockError`
        naming each of them and what it waits on, instead of returning
        silently with work undone (bound runs only check when the queue
        truly drained, not when a bound stopped them early).
        """
        end = self._drain(until, max_events)
        if raise_on_deadlock:
            self.check_deadlock()
        return end

    def blocked_processes(self) -> list:
        """Live non-daemon processes with no scheduled resume.

        Only meaningful when the queue is empty: any live process then
        necessarily blocks on an event or join that can never fire.
        """
        return sorted(
            (p for p in self._live if not p.daemon and p.alive),
            key=lambda p: p.name,
        )

    def check_deadlock(self) -> None:
        """Raise :class:`DeadlockError` if the drained queue stranded
        non-daemon processes (no-op while work is still scheduled)."""
        if self._queue or self._ready:
            return
        blocked = self.blocked_processes()
        if blocked:
            raise DeadlockError(blocked)

    def _drain(self, until: Optional[float],
               max_events: Optional[int]) -> float:
        """The run loop behind :meth:`run` and :meth:`run_until`.

        Ring and heap are merged one record at a time in global
        ``(when, seq)`` order: ring records sit at the current instant,
        so a heap record goes first only when it is also due now with
        an earlier sequence number.  Ring records are never held back
        by ``until``; a heap record later than ``until`` parks the clock
        at ``until`` and ends the drain.  ``max_events`` stops the
        drain between records, so the rest stay queued in place and the next drain resumes in the original
        order.  A record that raises is not counted, and every record
        after it stays queued.

        A ``_CALL`` record is one ``payload(value)`` call and a ``_FN``
        record one ``payload()`` call.  A process resume is a ``_CALL``
        of the process itself, so :meth:`Process.__call__` is the one
        resume path and this loop never touches a generator.
        """
        if until is None:
            until = _INF
        elif until < self.now:
            raise ValueError(
                f"cannot run backwards: {until} < {self.now}")
        queue = self._queue
        ready = self._ready
        pop = heappop
        push = heappush
        popleft = ready.popleft
        now = self.now
        count = 0
        try:
            while queue or ready:
                if ready and not (
                    queue and queue[0][0] <= now and queue[0][1] < ready[0][0]
                ):
                    _seq, kind, payload, value = popleft()
                else:
                    when, _seq, kind, payload, value = pop(queue)
                    if when > until:
                        # put it back: the heap is keyed on the unique
                        # (when, seq), so the order is unchanged
                        push(queue, (when, _seq, kind, payload, value))
                        self.now = until
                        break
                    self.now = now = when
                if kind:
                    payload(value)
                else:
                    payload()
                count += 1
                if max_events is not None and count >= max_events:
                    break
        finally:
            self.event_count += count
        return self.now

    def run_until(self, when: float) -> float:
        """Epoch-bounded drain: run to ``when`` and *pin the clock there*.

        ``run(until=when)`` leaves ``now`` at the last dispatched event
        when the queue drains early; conservative lockstep execution
        (``repro.cluster``) needs every shard's clock parked exactly at
        the epoch boundary so the next epoch's externally injected
        arrivals can never look like scheduling in the past.  Pending
        work beyond ``when`` is untouched (identical to ``run(until=
        when)``); only an *idle* clock is advanced.
        """
        end = self.run(until=when)
        if end < when and not self._queue and not self._ready:
            self.now = when
            return when
        return end

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay``; usable for sleep-with-value."""
        ev = Event()
        self.call_after(delay, lambda: ev.fire(value))
        return ev
