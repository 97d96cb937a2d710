"""Waitable primitives: one-shot events and broadcast signals.

These carry no reference to the engine; firing an event immediately runs
the waiters' wake callbacks (which resume the waiting processes), so
wakeups happen at the current simulated instant, preserving causality.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Event:
    """One-shot waitable.

    A process waits by yielding the event; :meth:`fire` wakes all
    waiters with the given value.  Firing twice is an error — reuse
    :class:`Signal` for recurring conditions.
    """

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        # Lazily allocated: most events fire with zero or one waiter,
        # and the hot paths (ProcessorSharing completions, FIFO grants)
        # create events by the million.
        self._waiters: Optional[List[Callable[[Any], None]]] = None

    def _add_waiter(self, wake: Callable[[Any], None]) -> None:
        if self.fired:
            wake(self.value)
        elif self._waiters is None:
            self._waiters = [wake]
        else:
            self._waiters.append(wake)

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every waiter with ``value``."""
        if self.fired:
            raise RuntimeError("Event fired twice")
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            for wake in waiters:
                wake(value)

    def __repr__(self) -> str:  # pragma: no cover - diagnostic aid
        if self.fired:
            return f"<Event fired value={self.value!r}>"
        n = len(self._waiters) if self._waiters else 0
        return f"<Event pending waiters={n} at {id(self):#x}>"


class Signal:
    """Reusable broadcast condition.

    ``wait()`` hands back a fresh one-shot :class:`Event` enrolled for
    the *next* :meth:`pulse`.  This is the building block for
    "wake me when the TaskTable changes" style polling loops without
    simulating every idle poll iteration.  A pulse calls ``fire(value)``
    on whatever is enrolled, so a callback object with that method (an
    MTB scheduler warp) can enrol itself instead of an event.
    """

    __slots__ = ("_pending", "pulse_count")

    def __init__(self) -> None:
        self._pending: List[Event] = []
        self.pulse_count = 0

    def wait(self) -> Event:
        """Return an event that fires on the next pulse."""
        ev = Event()
        self._pending.append(ev)
        return ev

    def pulse(self, value: Any = None) -> None:
        """Wake everything currently waiting."""
        self.pulse_count += 1
        pending = self._pending
        if pending:
            self._pending = []
            for ev in pending:
                ev.fire(value)

    @property
    def waiter_count(self) -> int:
        """Events armed for the next pulse."""
        return len(self._pending)
