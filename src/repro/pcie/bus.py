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

from repro.gpu.timing import TimingModel
from repro.sim import Engine, FifoResource, Process
from repro.sim.engine import Op


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

    def transfer(self, nbytes: int, direction: Direction) -> "Transfer":
        """One cudaMemcpy-style transaction, as a :class:`Transfer`.

        ``yield from bus.transfer(n, Direction.H2D)`` returns after the
        payload is fully delivered; ``engine.spawn(bus.transfer(...),
        name)`` runs it on its own, joinable with ``yield``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return Transfer(self, nbytes, direction)

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


class Transfer(Op):
    """One DMA transaction on a :class:`PcieBus` (a callback object).

    It queues for the direction's DMA engine, holds it for the service
    time (again for each injected ``pcie.drop`` replay, twice for a
    ``pcie.dup``), releases it and finishes, waking its joiners.
    """

    __slots__ = ("bus", "nbytes", "direction", "dma", "duration",
                 "queued_at")

    def __init__(self, bus: PcieBus, nbytes: int,
                 direction: Direction) -> None:
        Process.__init__(self, bus.engine, None, "transfer")
        self.bus = bus
        self.nbytes = nbytes
        self.direction = direction
        self.dma = bus._engines[direction]

    def _begin(self) -> None:
        engine = self.engine
        self.queued_at = engine.now
        if self.dma.request(self):
            # granted at once: the bounce a wait on a fired event takes
            engine.call_soon_with(Transfer.fire, self)

    def fire(self, _value=None) -> None:
        """The DMA engine is granted (a release fires the queued
        transfer as it fires an acquire event)."""
        bus = self.bus
        engine = self.engine
        timing = bus.timing
        duration = (self.nbytes / timing.pcie_bandwidth_bpns
                    + timing.pcie_transaction_ns)
        if bus.obs is not None:
            bus._obs_wait[self.direction].record(engine.now - self.queued_at)
        if bus.faults is not None:
            delay = bus.faults.draw("pcie.delay", self.direction.value)
            if delay is not None:
                # congestion / link retraining: the payload is intact
                # but arrives late
                duration += delay.magnitude_ns
            self.duration = duration
            self._replay()
            return
        self._after(duration, Transfer._delivered)

    def _replay(self) -> None:
        """Fault draws after each service time: a ``pcie.drop`` loses
        the transaction, which is replayed and pays the full service
        time again (a replayed TLP after CRC error); a ``pcie.dup``
        delivers it twice, the second copy occupying the engine for
        another service time."""
        bus = self.bus
        direction = self.direction
        faults = bus.faults
        step = Transfer._delivered
        if faults.draw("pcie.drop", direction.value) is not None:
            bus.dropped[direction] += 1
            step = Transfer._replay
        elif faults.draw("pcie.dup", direction.value) is not None:
            bus.duplicated[direction] += 1
            self.duration *= 2.0
        self._after(self.duration, step)

    def _delivered(self) -> None:
        self.dma.release()
        bus = self.bus
        direction = self.direction
        nbytes = self.nbytes
        bus.bytes_moved[direction] += nbytes
        bus.transactions[direction] += 1
        if bus.obs is not None:
            bus._obs_bytes[direction].inc(nbytes)
            bus._obs_txns[direction].inc()
        self._finish(None)
