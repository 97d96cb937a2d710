"""One Streaming Multiprocessor: issue bandwidth + resource accounting.

The SMM is where warp-granularity contention happens.  Instruction
issue is a :class:`~repro.sim.resources.ProcessorSharing` pool: up to
``warp_schedulers_per_smm`` warp-instructions per cycle for the SMM,
at most one per cycle for any single warp.  With four schedulers, 1–4
resident warps each run at full speed; beyond four they share —
exactly the contention profile occupancy arguments rely on.

Registers, shared memory, block slots, and warp slots are counted
(not timed) resources claimed when a block is placed and returned when
it retires.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.gpu.phases import BlockSync, Phase
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel, batch_finish_tags
from repro.sim import Engine, Event, ProcessorSharing, TimeWeighted
from repro.sim.engine import _FN

#: :meth:`_PhaseRunner.step` result while a stage is in flight
_PARKED = object()


class Smm:
    """Event-driven model of one SMM."""

    def __init__(
        self, engine: Engine, spec: GpuSpec, timing: TimingModel, index: int,
        obs=None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.timing = timing
        self.index = index
        issue_rate = spec.warp_schedulers_per_smm * spec.clock_ghz
        self.issue = ProcessorSharing(
            engine, rate=issue_rate, per_job_cap=spec.clock_ghz,
            name=f"smm{index}.issue",
        )
        # vectorized finish-tag kernel for coalesced sibling-warp
        # arrivals (bit-identical to the scalar path; see
        # repro.gpu.timing and docs/INTERNALS.md §10)
        self.issue.tag_kernel = batch_finish_tags
        self.free_warps = spec.max_warps_per_smm
        self.free_blocks = spec.max_blocks_per_smm
        self.free_registers = spec.registers_per_smm
        self.free_shared_mem = spec.shared_mem_per_smm
        self.resident_warps = TimeWeighted()
        #: optional :class:`repro.obs.Obs`: the per-SMM occupancy
        #: timeline (resident warps over virtual time, a Perfetto
        #: counter track).  ``None`` costs nothing.
        self.obs = obs
        self._obs_resident = (
            obs.timeline(f"gpu.smm{index}.resident_warps")
            if obs is not None else None
        )

    # -- block placement -------------------------------------------------

    def can_host(self, warps: int, registers: int, shared_mem: int) -> bool:
        """Whether a block needing these resources fits right now."""
        return (
            self.free_blocks >= 1
            and self.free_warps >= warps
            and self.free_registers >= registers
            and self.free_shared_mem >= shared_mem
        )

    def reserve_block(self, warps: int, registers: int, shared_mem: int) -> None:
        """Claim resources for one resident block (must fit)."""
        if not self.can_host(warps, registers, shared_mem):
            raise RuntimeError(
                f"SMM {self.index}: block does not fit "
                f"(warps={warps}, regs={registers}, smem={shared_mem})"
            )
        self.free_blocks -= 1
        self.free_warps -= warps
        self.free_registers -= registers
        self.free_shared_mem -= shared_mem
        self.resident_warps.add(self.engine.now, warps)
        if self._obs_resident is not None:
            self._obs_resident.add(self.engine.now, warps)

    def release_block(self, warps: int, registers: int, shared_mem: int) -> None:
        """Return a retired block's resources."""
        self.free_blocks += 1
        self.free_warps += warps
        self.free_registers += registers
        self.free_shared_mem += shared_mem
        if (
            self.free_blocks > self.spec.max_blocks_per_smm
            or self.free_warps > self.spec.max_warps_per_smm
            or self.free_registers > self.spec.registers_per_smm
            or self.free_shared_mem > self.spec.shared_mem_per_smm
        ):
            raise RuntimeError(f"SMM {self.index}: resource over-release")
        self.resident_warps.add(self.engine.now, -warps)
        if self._obs_resident is not None:
            self._obs_resident.add(self.engine.now, -warps)

    # -- warp execution ----------------------------------------------------

    def run_phases(self, phases: Iterator, dram: ProcessorSharing):
        """Run a warp's kernel items on this SMM up to its next barrier.

        Pulls items from the ``phases`` iterator and turns each
        :class:`Phase` into time: instruction issue contends on this
        SMM's schedulers; memory traffic first exposes the DRAM access
        latency (a stall private to this warp — other warps keep
        issuing, so occupancy hides it) and then contends on the
        GPU-wide bandwidth pool ``dram``.

        The warp's process is not resumed between stages: a
        :class:`_PhaseRunner` is the pools' completion target and pulls
        the next item itself.  It stops at the first :class:`BlockSync`
        (the stop item), when the iterator is exhausted (``None``) or
        when the kernel raises (the exception instance; the caller
        decides whether it fails a task or propagates).  A kernel item
        that is neither raises :class:`TypeError`.

        Returns the stop item itself if the warp reached it without
        simulated time passing, otherwise an unfired :class:`Event`
        the caller yields, which fires with the stop item.
        """
        runner = _PhaseRunner(self, phases, dram)
        item = runner.step()
        if item is not _PARKED:
            return item
        done = runner.done = Event()
        return done

    def mean_occupancy(self, end: float | None = None) -> float:
        """Time-averaged resident warps / warp slots."""
        end = self.engine.now if end is None else end
        return self.resident_warps.average(end) / self.spec.max_warps_per_smm


class _PhaseRunner:
    """Carries one warp through one barrier segment of its kernel.

    A phase is up to two stages, each a private latency followed by a
    pooled demand: issue (``phase_overhead_ns``, then ``inst`` on the
    SMM's issue pool) and memory (the dependency stall plus
    ``mem_latency_ns``, then ``mem_bytes`` on the DRAM pool).  A stage
    with a demand joins its pool through ``ProcessorSharing._arrive``
    with this runner as the completion target; a stage with only a
    latency pushes a timer record that calls :meth:`fire` too.  Either
    way the engine sees the same records, in the same ``(when, seq)``
    slots, as when the warp's process slept and consumed stage by stage
    itself.
    """

    #: ``done`` (the event fired with the stop item, set once the runner
    #: parks) and the in-flight phase's ``inst``, ``mem_bytes`` and
    #: ``issued`` (whether its issue stage is over) are assigned before
    #: their first read.
    __slots__ = ("smm", "phases", "dram", "done", "inst", "mem_bytes",
                 "issued")

    def __init__(self, smm: Smm, phases: Iterator,
                 dram: ProcessorSharing) -> None:
        self.smm = smm
        self.phases = phases
        self.dram = dram

    def _sleep(self, delay: float) -> None:
        # a private latency with no pooled demand after it; inlined
        # engine._push, as for a process's numeric-delay yield
        engine = self.smm.engine
        engine._seq += 1
        heapq.heappush(engine._queue,
                       (engine.now + delay, engine._seq, _FN, self.fire,
                        None))

    def step(self):
        """Start the next phase; return the stop item if the segment
        ends before anything parks, else :data:`_PARKED`."""
        phases = self.phases
        while True:
            try:
                item = next(phases)
            except StopIteration:
                return None
            except Exception as exc:
                return exc
            if isinstance(item, Phase):
                inst = item.inst
                self.inst = inst
                self.mem_bytes = mem_bytes = item.mem_bytes
                self.issued = False
                timing = self.smm.timing
                if inst:
                    # the fixed issue overhead immediately precedes the
                    # issue demand: one deferred arrival covers both
                    self.smm.issue._arrive(timing.phase_overhead_ns, inst,
                                           self)
                    return _PARKED
                if timing.phase_overhead_ns:
                    self._sleep(timing.phase_overhead_ns)
                    return _PARKED
                if mem_bytes:
                    self.issued = True
                    self.dram._arrive(timing.mem_latency_ns, mem_bytes, self)
                    return _PARKED
            elif isinstance(item, BlockSync):
                return item
            else:
                raise TypeError(f"kernel yielded {item!r}")

    def fire(self, _value=None) -> None:
        """The stage in flight is over: start the memory stage after
        the issue stage, else the next phase."""
        # a warp killed mid-phase (watchdog, task kill) issues nothing
        # more; its process is the done event's waiter
        waiters = self.done._waiters
        if waiters is not None and not getattr(waiters[0], "alive", True):
            return
        if not self.issued:
            self.issued = True
            smm = self.smm
            timing = smm.timing
            stall = 0.0
            ratio = timing.warp_stall_ratio
            if ratio:
                # dependency stalls: private to this warp, hidden only
                # when enough *other* warps are resident (occupancy)
                stall = self.inst * ratio / smm.spec.clock_ghz
            mem_bytes = self.mem_bytes
            if mem_bytes:
                # the stall and the DRAM access latency are both private
                # sleeps with nothing observable in between — fused with
                # the bandwidth demand into one deferred arrival
                self.dram._arrive(stall + timing.mem_latency_ns, mem_bytes,
                                  self)
                return
            if stall:
                self._sleep(stall)
                return
        item = self.step()
        if item is not _PARKED:
            self.done.fire(item)
