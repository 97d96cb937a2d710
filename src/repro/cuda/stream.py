"""CUDA streams: in-order operation queues.

Operations (async memcpys, kernel launches) enqueued on one stream
execute in FIFO order; different streams proceed independently — the
concurrency HyperQ exposes through its 32 hardware connections
(connection arbitration happens in :mod:`repro.cuda.runtime`, not
here).
"""

from __future__ import annotations

from typing import Callable, Generator, List

from repro.sim import Engine, Event, Store


class Stream:
    """One in-order queue of device operations."""

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._ops: Store = Store(engine, f"stream.{name}")
        self._pending = 0
        self._drain_waiters: List[Event] = []
        self.completed_ops = 0
        engine.spawn(self._driver(), name=f"stream-driver.{name}",
                     daemon=True)

    def enqueue(self, op: Callable[[], Generator]) -> Event:
        """Queue an operation; the returned event fires on completion.

        ``op`` is a zero-argument generator factory executed by the
        stream's driver process.
        """
        done = Event()
        self._pending += 1
        self._ops.put((op, done))
        return done

    def _driver(self) -> Generator:
        while True:
            op, done = yield self._ops.get()
            yield from op()
            self._pending -= 1
            self.completed_ops += 1
            done.fire(self.engine.now)
            if self._pending == 0:
                waiters, self._drain_waiters = self._drain_waiters, []
                for ev in waiters:
                    ev.fire(self.engine.now)

    def synchronize(self) -> Event:
        """Event that fires when every queued op has completed
        (cudaStreamSynchronize)."""
        ev = Event()
        if self._pending == 0:
            ev.fire(self.engine.now)
        else:
            self._drain_waiters.append(ev)
        return ev

    @property
    def pending(self) -> int:
        """Operations queued or executing on this stream."""
        return self._pending
