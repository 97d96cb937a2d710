"""CUDA events: timing markers and cross-stream dependencies.

Models ``cudaEventCreate`` / ``cudaEventRecord`` /
``cudaEventSynchronize`` / ``cudaEventElapsedTime`` — the primitives
Table 1 maps Pagoda's ``wait``/``check`` onto for the CUDA baseline.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cuda.stream import Stream
from repro.sim import Engine, Event


class CudaEvent:
    """One recordable timing/dependency marker."""

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._completed = Event()
        self.record_time: Optional[float] = None
        self.complete_time: Optional[float] = None

    @property
    def recorded(self) -> bool:
        """Whether cudaEventRecord has been called."""
        return self.record_time is not None

    @property
    def completed(self) -> bool:
        """cudaEventQuery: has all prior work on the stream finished?"""
        return self._completed.fired

    def record(self, stream: Stream) -> None:
        """cudaEventRecord: completes when every op enqueued on the
        stream *before this call* has finished."""
        if self.completed:
            raise RuntimeError(f"event {self.name!r} already completed")
        self.record_time = self.engine.now

        def marker() -> Generator:
            self.complete_time = self.engine.now
            self._completed.fire(self.engine.now)
            return
            yield  # pragma: no cover - generator shape

        stream.enqueue(marker)

    def synchronize(self) -> Event:
        """cudaEventSynchronize: waitable for completion."""
        if not self.recorded:
            raise RuntimeError(f"event {self.name!r} was never recorded")
        return self._completed

    def elapsed_ms(self, later: "CudaEvent") -> float:
        """cudaEventElapsedTime between two completed events."""
        if self.complete_time is None or later.complete_time is None:
            raise RuntimeError("both events must have completed")
        return (later.complete_time - self.complete_time) / 1e6

