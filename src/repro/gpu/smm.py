"""One Streaming Multiprocessor: issue bandwidth + resource accounting.

The SMM is where warp-granularity contention happens.  Instruction
issue is a :class:`~repro.sim.resources.ProcessorSharing` pool: up to
``warp_schedulers_per_smm`` warp-instructions per cycle for the SMM,
at most one per cycle for any single warp.  With four schedulers, 1–4
resident warps each run at full speed; beyond four they share —
exactly the contention profile occupancy arguments rely on.

Warps are not processes: a slotted ``_Warp`` is the pools' completion
target and pulls its own kernel items.  A block's like warps share one
pool entry (a cohort), and a cohort walking one phase table in
lockstep moves past each phase and barrier as one gang.

Registers, shared memory, block slots, and warp slots are counted
(not timed) resources claimed when a block is placed and returned when
it retires.
"""

from __future__ import annotations

from repro.gpu.phases import BarrierMismatch, BlockSync, Phase
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.sim import Engine, Event, ProcessorSharing, TimeWeighted

#: :meth:`_Warp.start` result while a stage is in flight
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
        #: the warp whose cohort joined the issue pool last; a warp
        #: starting a phase like it grows that cohort while its arrival
        #: is still pending
        self._tail = None
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

    def run_phases(self, phases, dram: ProcessorSharing,
                   barrier=None, sync_ns: float = 0.0):
        """Run a warp's kernel items on this SMM.

        ``phases`` is a keyed kernel's phase table (the tuple
        :meth:`repro.gpu.device.Gpu.warp_items` shares among every warp
        with its key) or an item iterator (a generator kernel).  Each
        :class:`Phase` becomes time: instruction issue contends on this
        SMM's schedulers; memory traffic first exposes the DRAM access
        latency (a stall private to this warp — other warps keep
        issuing, so occupancy hides it) and then contends on the
        GPU-wide bandwidth pool ``dram``.

        No process carries the warp: a cohort of like warps
        (:class:`_Warp`), the pools' completion target, pulls the next
        item itself, and passes each :class:`BlockSync` on the block's
        ``barrier`` (a :class:`repro.cuda.WarpBarrier`) after
        ``sync_ns``.  It stops at the end (``None``), or when the
        kernel raises or the block's warps disagree on their barrier
        count (the exception instance); without a barrier, also at the
        first :class:`BlockSync`.  Any other item raises
        :class:`TypeError`.

        Returns that stop item if no simulated time passed, otherwise
        an :class:`Event` that fires once with it.  The warp stops
        issuing once the event's waiter has a false ``alive``.
        """
        warp = _Warp(self, phases, dram, barrier, sync_ns)
        item = warp.start()
        if item is not _PARKED:
            return item
        done = warp.done = Event()
        return done

    def mean_occupancy(self, end: float | None = None) -> float:
        """Time-averaged resident warps / warp slots."""
        end = self.engine.now if end is None else end
        return self.resident_warps.average(end) / self.spec.max_warps_per_smm


class _Warp:
    """One warp on its way through its kernel (without a barrier, one
    segment of it); the first warp of a cohort also leads it.

    A keyed kernel's warp walks its phase table as ``(table, pos)``; a
    generator kernel's pulls from ``phases``.  A phase is up to two
    stages, each a private latency followed by a pooled demand: issue
    (``phase_overhead_ns``, then ``inst`` on the SMM's issue pool) and
    memory (the dependency stall plus ``mem_latency_ns``, then
    ``mem_bytes`` on the DRAM pool).  The warps of a block start their
    phases at the same instant, one after another, with the same
    demands.  A warp that lands right behind a like warp in one arrival
    batch of the issue pool joins that warp's **cohort**
    (``ProcessorSharing._grow``): the first warp leads it, is the
    completion target of the one weight-``k`` job in each pool, and
    lists the cohort in ``cohort`` (``None`` while it runs alone).  A
    stage with only a latency pushes one timer record per warp.

    A cohort is in **lockstep** (``lockstep``) while all its warps walk
    the same table at the same position with the same barrier, sync
    latency and DRAM pool: the lead then holds the position for all of
    them, and at the end of each stage moves the whole cohort on as one
    gang (:meth:`_step`) — one issue arrival (or one grow of the
    pending entry it would join) for a :class:`Phase`, one sync record
    and one bulk barrier arrival for a :class:`BlockSync`.  Any other
    case falls back to the per-warp path, where each warp keeps its own
    position: the warps go on one at a time in arrival order, and those
    that continue regroup by the same rule.  Kills are caught through
    the engine's ``kill_epoch``: a gang re-checks its warps (``epoch``
    is when it last did) only once the epoch has moved.

    Either way the engine sees the same records, in the same ``(when,
    seq)`` slots, as when every warp was its own job, and when each
    warp's process slept, consumed and synced stage by stage itself
    (the last arriver at a barrier goes on from a ready-ring record) —
    except that a lockstep cohort's ``k`` back-to-back sync timers are
    one record.
    """

    #: ``done`` (the event fired with the stop item, set once the warp
    #: parks), the phase's ``inst``, ``mem_bytes`` and ``issued``
    #: (whether its issue stage is over), ``lockstep`` and ``epoch``
    #: are assigned before their first read; ``table`` and ``pos``, or
    #: ``phases``, hold the kernel's items; ``cohort`` is set while the
    #: warp leads followers.
    __slots__ = ("smm", "table", "pos", "phases", "dram", "barrier",
                 "sync_ns", "done", "inst", "mem_bytes", "issued",
                 "cohort", "lockstep", "epoch")

    def __init__(self, smm: Smm, phases, dram: ProcessorSharing,
                 barrier, sync_ns: float) -> None:
        self.smm = smm
        if type(phases) is tuple:
            self.table = phases
            self.pos = 0
        else:
            self.table = None
            self.phases = phases
        self.dram = dram
        self.barrier = barrier
        self.sync_ns = sync_ns
        self.cohort = None

    def start(self):
        """Start the next phase; return the stop item if the warp
        stops before anything parks, else :data:`_PARKED`."""
        table = self.table
        while True:
            if table is None:
                try:
                    item = next(self.phases)
                except StopIteration:
                    return self._exit()
                except Exception as exc:
                    return exc
            else:
                pos = self.pos
                if pos == len(table):
                    return self._exit()
                item = table[pos]
                self.pos = pos + 1
            if isinstance(item, Phase):
                inst = item.inst
                mem_bytes = item.mem_bytes
                smm = self.smm
                timing = smm.timing
                if inst:
                    # join the last issue cohort if it is like this
                    # phase and still pending (a tail past its issue
                    # stage is not: that skips the pool's dict lookup)
                    tail = smm._tail
                    if (tail is not None and not tail.issued
                            and tail.inst == inst
                            and tail.mem_bytes == mem_bytes
                            and tail.dram is self.dram
                            and smm.issue._grow(timing.phase_overhead_ns,
                                                tail)):
                        tail._enlist(self)
                        return _PARKED
                    smm._tail = self
                self.inst = inst
                self.mem_bytes = mem_bytes
                self.issued = False
                if inst:
                    # the fixed issue overhead immediately precedes the
                    # issue demand: one deferred arrival covers both
                    smm.issue._arrive(timing.phase_overhead_ns, inst, self)
                    return _PARKED
                if timing.phase_overhead_ns:
                    smm.engine.call_after(timing.phase_overhead_ns,
                                          self.fire)
                    return _PARKED
                if mem_bytes:
                    self.issued = True
                    self.dram._arrive(timing.mem_latency_ns, mem_bytes, self)
                    return _PARKED
            elif isinstance(item, BlockSync):
                if self.barrier is None:
                    return item
                self.smm.engine.call_after(self.sync_ns, self.arrive)
                return _PARKED
            else:
                raise TypeError(f"kernel yielded {item!r}")

    def _exit(self):
        """The kernel ended: leave the barrier; the stop item."""
        if self.barrier is not None:
            try:
                self.barrier.leave()
            except BarrierMismatch as exc:
                return exc
        return None

    def _enlist(self, joiner, gang=None) -> None:
        """Count ``joiner`` — with ``gang``, the lockstep cohort it
        leads — into the cohort of this lead's pending issue entry,
        which the caller just grew.  The cohort is in lockstep while
        every warp stands where the lead does, on the same table with
        the same barrier and sync latency (the DRAM pool matched
        already)."""
        table = self.table
        like = (table is not None and joiner.table is table
                and joiner.pos == self.pos
                and joiner.barrier is self.barrier
                and joiner.sync_ns == self.sync_ns)
        cohort = self.cohort
        if cohort is None:
            # the lead may have been killed since it joined the pool
            self.lockstep = like = like and _alive(self)
            if like:
                self.epoch = self.smm.engine.kill_epoch
            self.cohort = cohort = [self]
        elif self.lockstep and not like:
            # each follower takes its position before the joiner lands
            self._unlock()
        if gang is None:
            cohort.append(joiner)
            return
        if not self.lockstep:
            joiner._unlock()
        cohort += gang

    def _unlock(self) -> None:
        """Give each warp of this lead's lockstep cohort its own
        position: the cohort goes on warp by warp."""
        pos = self.pos
        for warp in self.cohort:
            warp.pos = pos
        self.lockstep = False

    def _in_step(self, cohort) -> bool:
        """Whether every warp of this lead's lockstep cohort is alive:
        known without a look unless a kill happened since the last
        (hot callers test the epoch themselves first)."""
        epoch = self.smm.engine.kill_epoch
        if epoch != self.epoch:
            for warp in cohort:
                if not _alive(warp):
                    return False
            self.epoch = epoch
        return True

    def _step(self, cohort) -> bool:
        """Move this lead's lockstep cohort past its next item as one
        gang, as each warp's :meth:`start` in turn would; return False,
        having changed nothing, to leave it to the per-warp path (a
        kill, the end of the table, a phase without an issue arrival or
        a :class:`BlockSync` without a barrier)."""
        smm = self.smm
        if (smm.engine.kill_epoch != self.epoch
                and not self._in_step(cohort)):
            return False
        table = self.table
        pos = self.pos
        if pos == len(table):
            return False  # each warp exits on its own
        item = table[pos]
        if isinstance(item, Phase):
            inst = item.inst
            overhead = smm.timing.phase_overhead_ns
            if not (inst and overhead):
                return False  # per-warp sleeps or immediate jobs
            mem_bytes = item.mem_bytes
            self.pos = pos + 1
            tail = smm._tail
            if (tail is not None and not tail.issued
                    and tail.inst == inst
                    and tail.mem_bytes == mem_bytes
                    and tail.dram is self.dram
                    and smm.issue._grow(overhead, tail, len(cohort))):
                tail._enlist(self, cohort)
                self.cohort = None
                return True
            smm._tail = self
            self.inst = inst
            self.mem_bytes = mem_bytes
            self.issued = False
            smm.issue._arrive(overhead, inst, self, len(cohort))
            return True
        if isinstance(item, BlockSync) and self.barrier is not None:
            self.pos = pos + 1
            smm.engine.call_after(self.sync_ns, self._sync)
            return True
        return False

    def _sync(self) -> None:
        """The lockstep cohort's sync latency is over: its warps arrive
        at the barrier together and wait at the gate as one waiter.  If
        they complete the generation, the first ``k - 1`` wait as one
        and the last goes on from the ready ring.  After a kill, at a
        barrier a warp has left, or across a generation, each warp
        arrives on its own."""
        cohort = self.cohort
        barrier = self.barrier
        arrived = barrier._arrived + len(cohort)
        if (barrier._left or arrived > barrier.parties
                or not self._in_step(cohort)):
            self._unlock()
            self.cohort = None
            for warp in cohort:
                warp.arrive()
            return
        if arrived < barrier.parties:
            barrier._arrived = arrived
            barrier._gate._add_waiter(self._wake)
            return
        last = cohort.pop()
        last.pos = self.pos
        barrier._arrived = arrived - 1
        if len(cohort) == 1:
            self.cohort = None
            barrier._gate._add_waiter(self)
        else:
            barrier._gate._add_waiter(self._wake)
        barrier.arrive()  # the last arrival opens the gate
        self.smm.engine.call_soon(last)

    def _wake(self, _value=None) -> None:
        """The gate opened for the waiting lockstep cohort."""
        cohort = self.cohort
        if not self._step(cohort):
            self._scatter(cohort)

    def _scatter(self, cohort) -> None:
        """Let each warp of the cohort go on by itself, in arrival
        order."""
        if self.lockstep:
            self._unlock()
        self.cohort = None  # the lead's next phase may open another
        for warp in cohort:  # each warp(), inlined
            waiters = warp.done._waiters
            if (waiters is not None
                    and not getattr(waiters[0], "alive", True)):
                continue
            item = warp.start()
            if item is not _PARKED:
                warp.done.fire(item)

    def arrive(self) -> None:
        """The sync latency is over: arrive at the barrier and wait at
        its gate, or, as the last arriver, go on from the ready ring."""
        waiters = self.done._waiters
        if waiters is not None and not getattr(waiters[0], "alive", True):
            return  # killed: see __call__
        try:
            gate = self.barrier.arrive()
        except BarrierMismatch as exc:
            self.done.fire(exc)
            return
        if gate.fired:
            self.smm.engine.call_soon(self)
        else:
            gate._add_waiter(self)

    def __call__(self, _value=None) -> None:
        """The warp's phase or barrier wait is over: start the next
        phase, or fire ``done`` with the stop item."""
        # a warp killed mid-phase (watchdog, task kill) issues nothing
        # more; its owner is the done event's waiter
        waiters = self.done._waiters
        if waiters is not None and not getattr(waiters[0], "alive", True):
            return
        item = self.start()
        if item is not _PARKED:
            self.done.fire(item)

    def fire(self, _value=None) -> None:
        """The cohort's stage in flight is over: start the memory stage
        after the issue stage, else let the cohort go on."""
        cohort = self.cohort
        if not self.issued:
            self.issued = True
            if cohort is None:
                waiters = self.done._waiters
                if (waiters is not None
                        and not getattr(waiters[0], "alive", True)):
                    return  # killed: see __call__
            elif not (self.lockstep
                      and (self.smm.engine.kill_epoch == self.epoch
                           or self._in_step(cohort))):
                if self.lockstep:
                    self._unlock()
                # a warp killed mid-phase drops out, even the lead,
                # which stays the target of the survivors' job
                cohort = self.cohort = [
                    warp for warp in cohort
                    if warp.done._waiters is None
                    or getattr(warp.done._waiters[0], "alive", True)]
            smm = self.smm
            timing = smm.timing
            stall = 0.0
            ratio = timing.warp_stall_ratio
            if ratio:
                # dependency stalls: private to each warp, hidden only
                # when enough *other* warps are resident (occupancy)
                stall = self.inst * ratio / smm.spec.clock_ghz
            mem_bytes = self.mem_bytes
            if mem_bytes:
                # the stall and the DRAM access latency are both private
                # sleeps with nothing observable in between — fused with
                # the bandwidth demand into one deferred arrival
                if cohort is None:
                    self.dram._arrive(stall + timing.mem_latency_ns,
                                      mem_bytes, self)
                elif cohort:
                    self.dram._arrive(stall + timing.mem_latency_ns,
                                      mem_bytes, self, len(cohort))
                return
            if stall:
                if cohort is None:
                    smm.engine.call_after(stall, self)
                    return
                if self.lockstep:
                    self._unlock()
                self.cohort = None
                call_after = smm.engine.call_after
                for warp in cohort:
                    call_after(stall, warp)
                return
        if cohort is None:
            self()
        elif not (self.lockstep and self._step(cohort)):
            self._scatter(cohort)


def _alive(warp) -> bool:
    """Whether the owner waiting on ``warp`` has not been killed."""
    waiters = warp.done._waiters
    return waiters is None or getattr(waiters[0], "alive", True)
