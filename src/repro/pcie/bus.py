"""PCIe link with per-transaction overhead and DMA engine serialization.

A transfer costs ``pcie_transaction_ns + bytes / pcie_bandwidth_bpns``
and holds the direction's single DMA engine for its duration, so many
small copies queue behind each other — the overhead regime the paper's
"1 cudamemcopy per task table entry" pipelining (§4.2.1) and lazy
aggregate copy-backs (§4.2.2) are designed around.  The two directions
are independent (PCIe is full duplex), letting H2D input copies overlap
D2H result copies exactly as CUDA streams allow.
"""

from __future__ import annotations

import enum
from typing import Generator

from repro.gpu.timing import TimingModel
from repro.sim import Engine, FifoResource


class Direction(enum.Enum):
    """Transfer direction over the link."""

    H2D = "host_to_device"
    D2H = "device_to_host"

    # members are singletons compared by identity, so identity hashing
    # is consistent with equality and keeps the per-transfer dict
    # lookups in C (Enum's own __hash__ is a Python-level call)
    __hash__ = object.__hash__


class PcieBus:
    """Full-duplex PCIe link with one DMA engine per direction."""

    def __init__(self, engine: Engine, timing: TimingModel,
                 faults=None, obs=None) -> None:
        self.engine = engine
        self.timing = timing
        #: optional :class:`repro.faults.FaultInjector`; hook points
        #: below draw ``pcie.drop`` / ``pcie.dup`` / ``pcie.delay``.
        self.faults = faults
        #: optional :class:`repro.obs.Obs`: per-direction byte and
        #: transaction counters plus DMA-queue-wait distributions.
        #: ``None`` (the default) costs nothing beyond this attribute.
        self.obs = obs
        if obs is not None:
            self._obs_bytes = {
                d: obs.counter(f"pcie.{d.name.lower()}.bytes")
                for d in Direction
            }
            self._obs_txns = {
                d: obs.counter(f"pcie.{d.name.lower()}.transactions")
                for d in Direction
            }
            self._obs_wait = {
                d: obs.distribution(f"pcie.{d.name.lower()}.queue_wait_ns")
                for d in Direction
            }
        self._engines = {
            Direction.H2D: FifoResource(engine, 1, "pcie.h2d"),
            Direction.D2H: FifoResource(engine, 1, "pcie.d2h"),
        }
        self.bytes_moved = {Direction.H2D: 0, Direction.D2H: 0}
        self.transactions = {Direction.H2D: 0, Direction.D2H: 0}
        #: injected-fault tallies (always present; non-zero only when a
        #: fault injector is attached).
        self.dropped = {Direction.H2D: 0, Direction.D2H: 0}
        self.duplicated = {Direction.H2D: 0, Direction.D2H: 0}

    def transfer_time(self, nbytes: int) -> float:
        """Service time of one transaction of ``nbytes`` (excl.
        queueing)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return (
            self.timing.pcie_transaction_ns
            + nbytes / self.timing.pcie_bandwidth_bpns
        )

    def transfer(self, nbytes: int, direction: Direction) -> Generator:
        """Subroutine: perform one cudaMemcpy-style transaction.

        Use as ``yield from bus.transfer(n, Direction.H2D)``.  Returns
        after the payload is fully delivered.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        dma = self._engines[direction]
        obs = self.obs
        queued_at = self.engine.now if obs is not None else 0.0
        yield dma.acquire()
        if obs is not None:
            self._obs_wait[direction].record(self.engine.now - queued_at)
        duration = (nbytes / self.timing.pcie_bandwidth_bpns
                    + self.timing.pcie_transaction_ns)
        faults = self.faults
        if faults is not None:
            site = direction.value
            delay = faults.draw("pcie.delay", site)
            if delay is not None:
                # congestion / link retraining: the payload is intact
                # but arrives late
                duration += delay.magnitude_ns
            while faults.draw("pcie.drop", site) is not None:
                # the transaction is lost and replayed: pay the full
                # service time again (a replayed TLP after CRC error)
                self.dropped[direction] += 1
                yield duration
            if faults.draw("pcie.dup", site) is not None:
                # delivered twice: the second copy is harmless but
                # occupies the engine for another service time
                self.duplicated[direction] += 1
                duration *= 2.0
        yield duration
        dma.release()
        self.bytes_moved[direction] += nbytes
        self.transactions[direction] += 1
        if obs is not None:
            self._obs_bytes[direction].inc(nbytes)
            self._obs_txns[direction].inc()

    def busy_time(self, direction: Direction) -> float:
        """Total service time charged so far in one direction.

        Used by Table 3's "% time spent in data copy" measurement.
        """
        n = self.transactions[direction]
        payload = self.bytes_moved[direction] / self.timing.pcie_bandwidth_bpns
        return n * self.timing.pcie_transaction_ns + payload

    def total_busy_time(self) -> float:
        """Busy time summed over both bus directions."""
        return self.busy_time(Direction.H2D) + self.busy_time(Direction.D2H)
