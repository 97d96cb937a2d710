"""Reusable warp-granularity barrier.

Both ``__syncthreads()`` (native CUDA blocks) and Pagoda's named
barriers (§5.2) synchronize at warp granularity in the model: each warp
arrival counts for its 32 threads.  The barrier is generation-based so
it can be reused across loop iterations without re-allocation.  It
learns of each warp's exit (:meth:`WarpBarrier.leave`), so warps that
disagree on their barrier count raise instead of waiting forever.
"""

from __future__ import annotations

from repro.gpu.phases import BarrierMismatch
from repro.sim import Event


class WarpBarrier:
    """Barrier for ``parties`` warps; reusable across generations."""

    def __init__(self, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._left = 0
        self._gate = Event()
        self.generation = 0

    def arrive(self) -> Event:
        """Register one warp's arrival; returned event fires when all
        ``parties`` warps of this generation have arrived.  Raises
        :class:`BarrierMismatch` once a party has exited."""
        if self._left:
            raise self._mismatch(f"a warp arrived after {self._left} of "
                                 f"its {self.parties} warps exited")
        self._arrived += 1
        gate = self._gate
        if self._arrived == self.parties:
            self._arrived = 0
            self._gate = Event()
            self.generation += 1
            gate.fire(self.generation)
        return gate

    def leave(self) -> None:
        """One party's warp exited; raises :class:`BarrierMismatch` if
        others are waiting for it."""
        self._left += 1
        if self._arrived:
            raise self._mismatch(f"a warp exited while {self._arrived} of "
                                 f"its {self.parties} warps wait")

    def _mismatch(self, detail: str) -> BarrierMismatch:
        return BarrierMismatch(
            f"barrier {self.name}: warps disagree on their barrier count "
            f"at generation {self.generation} ({detail})")

    @property
    def waiting(self) -> int:
        """Warps currently blocked at the barrier."""
        return self._arrived
