"""The MasterKernel: Pagoda's resource-virtualizing daemon (§4.1).

The MasterKernel launches once and runs forever, acquiring **all**
GPU resources: on the Titan X it places two 32-warp threadblocks
(MTBs) on each of the 24 SMMs — 48 MTBs, each with a statically
reserved 32 KB shared-memory arena and registers capped at 32 per
thread, which is exactly 100 % occupancy (asserted in the tests).

Inside each MTB, warp 0 is the *scheduler warp* running Algorithm 1
over its TaskTable column, and warps 1–31 are *executor warps* that
sleep until their WarpTable slot's exec flag is set.  The scheduler's
per-warp placement function is Algorithm 2's ``pSched``.  Neither kind
of warp is a process: the scheduler warp is a callback object
(:class:`_Scheduler`) that its column's signal re-arms, and an executor
warp is a per-slot callback object (:class:`_Executor`) that the
scheduler starts on each dispatch.

An MTB's WarpTable is built the first time it is used, not at boot;
the scheduler warp still starts at boot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType
from typing import Dict, List, Optional

import numpy as np

from repro.core.buddy import BuddyAllocator
from repro.core.errors import TaskError, WatchdogKill
from repro.core.named_barriers import NamedBarrierPool
from repro.core.tasktable import (
    READY_COPIED,
    READY_FREE,
    READY_SCHEDULING,
    TaskEntry,
    TaskTable,
)
from repro.core.warptable import WarpTable
from repro.device_api import BlockContext
from repro.gpu.device import Gpu
from repro.gpu.phases import BlockSync
from repro.gpu.smm import Smm
from repro.sim import Engine, Event, Process, TimeWeighted
from repro.sim.engine import Op
from repro.tasks import TaskSpec

#: Shared memory each MTB statically reserves for task use on the
#: Titan X (§4.1: two 32 KB arenas, the remaining 32 KB of the SMM's
#: 96 KB holds the scheduling data structures).
MTB_ARENA_BYTES = 32 * 1024
#: Warps per MTB (one 1024-thread threadblock).
MTB_WARPS = 32
#: MTBs per SMM (2 x 32 warps fill the 64 warp slots).
MTBS_PER_SMM = 2
#: Register budget: 32 regs/thread via -maxrregcount (§4.1); at the
#: 256-register warp allocation unit this is 1024 regs/warp.
MTB_REGISTERS = MTB_WARPS * 32 * 32


def mtb_arena_bytes(spec) -> int:
    """Per-MTB task arena for an arbitrary GPU: the largest power of
    two that still leaves roughly a third of the SMM's shared memory
    for the WarpTable and scheduling counters.

    Titan X (96 KB): 32 KB per MTB, the paper's layout.  Tesla K40
    (48 KB): 16 KB per MTB.
    """
    budget = spec.shared_mem_per_smm * 2 // 3 // MTBS_PER_SMM
    arena = 512  # buddy granule
    while arena * 2 <= budget:
        arena *= 2
    return arena


@dataclass(slots=True)
class ExecState:
    """Per-task execution bookkeeping attached to a TaskTable entry
    (the paper's ctr[]/doneCtr[] shared-memory counters).

    ``block_sm_offset`` / ``block_bar_id`` double as the task's live
    resource ledger: entries are recorded the instant a block's arena
    offset or barrier ID is acquired (before any further scheduler
    yield) and popped when the block releases them, so a mid-flight
    kill can free exactly what the task still holds.
    """

    done_ctr: int
    block_warps_left: Dict[int, int]
    block_sm_offset: Dict[int, Optional[int]] = field(default_factory=dict)
    block_bar_id: Dict[int, int] = field(default_factory=dict)
    started: bool = False
    #: set when the runtime killed the task (watchdog deadline,
    #: brown-out, kernel exception); placement loops abandon the task
    #: at their next wake instead of re-acquiring resources for it.
    killed: bool = False


class _WarpTableOnFirstUse:
    """``Mtb.warptable``: the MTB's WarpTable, built on first access.

    The table is then stored as a plain instance attribute, which
    shadows this non-data descriptor, so later reads are ordinary
    attribute loads.  It is stored with ``setattr``, never through
    ``__dict__``: touching ``__dict__`` turns CPython's inline instance
    attributes into a per-instance dict and makes every ``self.x`` on
    the MTB several times slower.  CPython also shares at most one
    attribute name added after ``__init__`` across a class's
    instances, so this is the only lazily built MTB attribute.
    """

    def __get__(self, mtb, owner=None):
        if mtb is None:
            return self
        mtb.built_warptable = mtb.warptable = WarpTable()
        return mtb.built_warptable


class Mtb:
    """One MasterKernel threadblock: scheduler warp + 31 executors."""

    warptable = _WarpTableOnFirstUse()

    def __init__(self, engine: Engine, gpu: Gpu, smm: Smm, table: TaskTable,
                 column: int, functional: bool = False,
                 serial_psched: bool = False,
                 arena_bytes: int = MTB_ARENA_BYTES,
                 deferred_scheduling: bool = False,
                 watchdog_deadline_ns: Optional[float] = None,
                 faults=None, obs=None, dram=None,
                 partition: Optional[str] = None) -> None:
        self.engine = engine
        self.gpu = gpu
        self.smm = smm
        self.table = table
        self.column = column
        self.timing = gpu.timing
        self.functional = functional
        #: DRAM bandwidth pool the executors charge memory phases to.
        #: The shared device pool by default; a compute partition hands
        #: each MasterKernel its own slice so one partition's memory
        #: traffic cannot perturb a sibling's timing.
        self.dram_pool = dram if dram is not None else gpu.dram
        #: owning partition name (``None`` outside partitioned mode);
        #: only used to label partition-scoped obs series.
        self.partition = partition
        #: ablation switch: place one warp per pSched pass instead of
        #: letting the scheduler warp's 32 threads search in parallel
        #: (what Algorithm 2 exists to avoid).
        self.serial_psched = serial_psched
        #: extension beyond Algorithm 1: when a task cannot start
        #: placement right now (no free executor warp / barrier ID /
        #: arena block), requeue it instead of blocking the scheduler
        #: warp — keeps promotions flowing and lets priorities reorder
        #: a deep backlog.
        self.deferred_scheduling = deferred_scheduling
        #: tasks still occupying GPU state this long after their
        #: scheduling started are presumed wedged and reclaimed (None
        #: disables the watchdog).
        self.watchdog_deadline_ns = watchdog_deadline_ns
        #: optional :class:`repro.faults.FaultInjector`; executor warps
        #: draw ``gpu.slow_warp`` / ``gpu.stuck_warp`` / ``task.*``.
        self.faults = faults
        #: optional :class:`repro.obs.Obs`.  Hooks: scheduler-decision
        #: counters + instant events (``schedule``/``promote``/``defer``
        #: /``task_done``/``task_fail``) and the per-SMM busy-executor
        #: utilization timeline (both MTBs of one SMM share the track).
        self.obs = obs
        if obs is not None:
            self._obs_busy = obs.timeline(f"gpu.smm{smm.index}.busy_warps")
            self._obs_sched = obs.counter("sched.decisions.schedule")
            self._obs_promote = obs.counter("sched.decisions.promote")
            self._obs_defer = obs.counter("sched.decisions.defer")
            self._obs_done = obs.counter("sched.tasks_done")
            self._obs_fail = obs.counter("sched.tasks_failed")
            self._obs_part_busy = (
                obs.timeline(f"gpu.partition.{partition}.busy_warps")
                if partition is not None else None
            )
        else:
            self._obs_busy = None
            self._obs_part_busy = None
        self.arena_bytes = arena_bytes
        #: the WarpTable once something has used :attr:`warptable`, else
        #: ``None``; walkers read this so they never build it (a table
        #: never built is 31 free slots).
        self.built_warptable: Optional[WarpTable] = None
        self.buddy = BuddyAllocator(arena_bytes)
        self.barriers = NamedBarrierPool()
        self.arena = (
            np.zeros(arena_bytes, dtype=np.uint8) if functional else None
        )
        #: executor warps currently running task work (useful occupancy).
        self.busy_warps = TimeWeighted()
        self.tasks_executed = 0
        #: tasks killed instead of completing (watchdog, brown-out,
        #: kernel exception, injected fault).
        self.tasks_failed = 0
        self.watchdog_kills: List[WatchdogKill] = []
        self.scheduler = engine.spawn(_Scheduler(self), daemon=True)
        #: slot index -> its executor warp, made on the slot's first
        #: dispatch (and again after a kill): most workloads touch a
        #: handful of the 31 slots per MTB.
        self._executors: list = [None] * WarpTable.EXECUTOR_WARPS

    def shutdown(self) -> None:
        """Stop this MTB's scheduler and executor warps."""
        self.scheduler.interrupt()
        for executor in self._executors:
            if executor is not None:
                executor.alive = False
        self.engine.kill_epoch += 1

    # -- scheduler warp (Algorithm 1, lines 2-28: see _Scheduler) -----------

    def _can_start(self, entry: TaskEntry) -> bool:
        """Deferred-scheduling probe: could placement begin right now?
        Conservative — only the first block's immediate needs."""
        task = entry.spec
        if task is None:
            return True  # let _schedule_task raise the corruption error
        # a whole first threadblock must be placeable, or pSched would
        # block the scheduler warp mid-placement
        if self.warptable.free_count < task.warps_per_block:
            return False
        if task.needs_sync and self.barriers.available == 0:
            return False
        if task.shared_mem_bytes:
            self.buddy.flush_deferred()
            probe = self.buddy.alloc(task.shared_mem_bytes)
            if probe is None:
                return False
            self.buddy.free(probe)
        return True

    def _handle_promotion(self, row: int, entry: TaskEntry) -> None:
        """Resolve a ready>1 pipelining pointer (Algorithm 1 lines 5-13)."""
        prev_id = entry.ready
        pcol, prow = self.table.id_map[prev_id]
        prev = self.table.gpu[pcol][prow]
        if prev.task_id == prev_id and prev.ready == READY_COPIED:
            prev.ready = READY_SCHEDULING
            prev.sched = 1
            if self.obs is not None:
                self._obs_promote.inc()
                self.obs.instant(f"sched.mtb{self.column}", "promote",
                                 self.engine.now, task_id=prev_id)
            self.table.mark_row_dirty(pcol, prow)
            self.table.column_signals[pcol].pulse()
        elif prev.task_id == prev_id and prev.ready > READY_SCHEDULING:
            # predecessor's own pointer not yet resolved by its
            # scheduler; keep this row queued and retry when the
            # predecessor reaches ready == -1.
            self.table.mark_row_dirty(self.column, row)
            self.table.register_promotion_waiter(pcol, prow, self.column)
            return
        elif (prev.task_id != prev_id
              and prev_id not in self.table.gpu_finished):
            # the slot holds some other task and the predecessor never
            # finished: its posted write has not landed yet (a delayed /
            # reordered mapped write), so OUR pointer overtook it.
            # Defer until the predecessor's entry lands.
            self.table.mark_row_dirty(self.column, row)
            self.table.register_promotion_waiter(pcol, prow, self.column)
            return
        # else: predecessor already promoted (host finalization) or
        # finished — nothing to promote.
        entry.ready = READY_COPIED
        self.table.notify_ready_copied(self.column, row)

    def _busy(self, delta: int) -> None:
        now = self.engine.now
        self.busy_warps.add(now, delta)
        if self._obs_busy is not None:
            self._obs_busy.add(now, delta)
        if self._obs_part_busy is not None:
            self._obs_part_busy.add(now, delta)

    def _retire(self, slot_index: int) -> None:
        """Free an executor warp's slot (Algorithm 1 line 43)."""
        self._busy(-1)
        self.warptable.retire(slot_index)

    def _warp_epilogue(self, row: int, block_id: int, entry: TaskEntry,
                       task: TaskSpec, state: ExecState) -> None:
        """Lines 34-42: last warp of the block releases block resources,
        last warp of the task frees the TaskTable entry.  Pure counter
        updates — takes no simulated time."""
        state.block_warps_left[block_id] -= 1
        if state.block_warps_left[block_id] == 0:
            if self.functional and task.func is not None:
                self._run_block_functional(task, block_id, state)
            # pop (not get): the ledger must only list resources the
            # task still holds, so a later kill frees nothing twice
            offset = state.block_sm_offset.pop(block_id, None)
            if offset is not None:
                self.buddy.mark_for_dealloc(offset)  # line 37
            bar_id = state.block_bar_id.pop(block_id, -1)
            if bar_id >= 0:
                self.barriers.release(bar_id)  # line 39
        state.done_ctr -= 1  # line 41's atomicDec
        if state.done_ctr == 0:
            if entry.result is not None:
                entry.result.end_time = self.engine.now
            self.tasks_executed += 1
            if self.obs is not None:
                self._obs_done.inc()
                self.obs.instant(f"sched.mtb{self.column}", "task_done",
                                 self.engine.now, task_id=entry.task_id,
                                 task=task.name)
            self.table.gpu_complete(self.column, row)  # line 42

    # -- hardening: kill / watchdog / brown-out --------------------------------

    def fail_entry(self, row: int, entry: TaskEntry, reason: str,
                   skip_slot: Optional[int] = None) -> Optional[TaskError]:
        """Kill a task mid-flight and free everything it holds.

        Reclaims the executor warps still running (or wedged on) the
        task, returns its arena blocks and barrier IDs from the
        ExecState ledger, and completes the TaskTable entry with a
        :class:`TaskError` so ``wait()`` raises instead of hanging.
        ``skip_slot`` names the calling executor's own slot (it retires
        itself after this returns).
        """
        state: Optional[ExecState] = entry.exec_state
        if state is not None and state.killed:
            return None  # already being torn down
        task = entry.spec
        err = TaskError(
            entry.task_id,
            task.name if task is not None else "?",
            reason,
            spawn_site=getattr(entry.result, "spawn_site", "") or "",
            column=self.column, row=row, when_ns=self.engine.now,
        )
        if state is not None:
            state.killed = True
        warptable = self.built_warptable
        busy = warptable.busy_slots() if warptable is not None else ()
        for idx in busy:
            slot = warptable.slots[idx]
            if not slot.exec_flag or slot.e_num != row or idx == skip_slot:
                continue
            executor = self._executors[idx]
            if executor is not None:
                executor.alive = False
                self.engine.kill_epoch += 1
                self._executors[idx] = None
            self._retire(idx)
        if state is not None:
            for offset in state.block_sm_offset.values():
                if offset is not None:
                    self.buddy.mark_for_dealloc(offset)
            state.block_sm_offset.clear()
            for bar_id in state.block_bar_id.values():
                if bar_id >= 0:
                    self.barriers.force_release(bar_id)
            state.block_bar_id.clear()
        if entry.result is not None:
            entry.result.end_time = self.engine.now
        self.tasks_failed += 1
        if self.obs is not None:
            self._obs_fail.inc()
            self.obs.instant(f"sched.mtb{self.column}", "task_fail",
                             self.engine.now, task_id=entry.task_id,
                             reason=reason)
        self.table.gpu_complete(self.column, row, error=err)
        # freed warps / arena / barriers may unblock queued rows
        self.table.column_signals[self.column].pulse()
        return err

    def _watchdog_check(self, row: int, task_id: int) -> None:
        """One-shot deadline callback armed by ``_schedule_task``.

        Generation-guarded: if the slot finished (ready back to 0) or
        was reused by a later task (different taskID), this is a stale
        timer and does nothing.
        """
        entry = self.table.gpu[self.column][row]
        if entry.task_id != task_id or entry.ready == READY_FREE:
            return
        state: Optional[ExecState] = entry.exec_state
        if state is None or state.killed:
            return
        deadline = self.watchdog_deadline_ns or 0.0
        err = self.fail_entry(
            row, entry,
            f"watchdog: task exceeded its {deadline:.0f}ns deadline",
        )
        if err is not None:
            self.watchdog_kills.append(WatchdogKill(
                when_ns=self.engine.now, task_id=task_id, name=err.name,
                column=self.column, row=row, deadline_ns=deadline,
            ))

    def brownout(self, reason: str = "gpu.brownout") -> int:
        """An SMM brown-out evicts every task resident on this MTB.

        Queued-but-unscheduled entries survive (they hold no SMM
        state); each resident task dies with a :class:`TaskError` and
        its resources return to the pools, so the MTB keeps scheduling
        afterwards.  Returns the number of tasks killed.  Only built
        rows are visited, in row order: a row never built is free.
        """
        col = self.table.gpu[self.column]
        killed = 0
        for row in sorted(col):
            entry = col[row]
            if entry.ready == READY_FREE or entry.exec_state is None:
                continue
            if entry.exec_state.killed:
                continue
            if self.fail_entry(row, entry, reason) is not None:
                killed += 1
        return killed

    def _run_block_functional(self, task: TaskSpec, block_id: int,
                              state: ExecState) -> None:
        """Run the block's functional kernel against the *real* buddy
        arena view, so allocator bugs would corrupt results."""
        shared = None
        offset = state.block_sm_offset.get(block_id)
        if offset is not None and task.shared_mem_bytes:
            shared = self.arena[offset:offset + task.shared_mem_bytes]
            shared[:] = 0
        task.func(BlockContext(task, block_id, shared))


class _Scheduler(Op):
    """The scheduler warp of one MTB (Algorithm 1, lines 2-28), as a
    callback object armed on its TaskTable column's signal.

    One pass: arm on the column signal (a pulse while the pass runs is
    not lost), pay one warp-parallel poll, drain the column's dirty
    rows (resolving pipelining pointers), then place each schedulable
    task: per threadblock a named barrier and an arena block when the
    task needs them, and Algorithm 2's pSched passes over the
    WarpTable.  Then it parks until the signal pulses — or starts the
    next pass at once if it already has.

    Waits on the WarpTable's free signal are armed by its pulse count
    (the scheduler warp is that signal's only waiter): a pulse since
    arming is a fired wait, which bounces through the ready ring;
    otherwise the scheduler enrols for the next pulse.
    """

    __slots__ = ("mtb", "timing", "table", "column", "col", "signal",
                 "woken", "parked", "rows", "row", "entry", "exec_state",
                 "block", "bar_id", "offset", "armed", "base_warp", "count",
                 "placed", "sm_index")

    def __init__(self, mtb: Mtb) -> None:
        Process.__init__(self, mtb.engine, None, f"sched.mtb{mtb.column}")
        self.mtb = mtb
        self.timing = mtb.timing
        self.table = mtb.table
        self.column = mtb.column
        self.col = mtb.table.gpu[mtb.column]
        self.signal = mtb.table.column_signals[mtb.column]
        #: the column signal pulsed since the pass armed it
        self.woken = False
        #: parked on the column signal (between passes)
        self.parked = False

    def interrupt(self, exc=None) -> None:
        """Stop the warp and drop what it holds, so a shut-down MTB is
        freed by reference counting, not left to the cyclic
        collector."""
        Op.interrupt(self, exc)
        # the MTB and the column signal (which may still hold this
        # scheduler) point back here
        self.mtb = self.table = self.signal = None

    def _retry(self, step) -> None:
        """Resume in ``step`` at the first free-signal pulse since
        :attr:`armed`: at once, through the ready ring, if there was
        one (a wait on a fired event), else inline at the next."""
        signal = self.mtb.warptable.free_signal
        if signal.pulse_count != self.armed:
            self.engine.call_soon_with(step, self)
        else:
            signal.wait()._add_waiter(MethodType(step, self))

    # -- the pass ------------------------------------------------------------

    def fire(self, _value=None) -> None:
        """The column signal pulsed (:meth:`Signal.pulse` fires the
        scheduler as it fires an armed event): start the next pass if
        parked, else note the pulse for the end of this one."""
        if self.parked:
            self.parked = False
            self._begin()
        else:
            self.woken = True

    def _begin(self, _value=None) -> None:
        if not self.alive:
            return  # shut down
        # Arm before scanning so changes made while we schedule are
        # not lost; the scan itself costs one warp-parallel poll.
        self.woken = False
        self.signal._pending.append(self)
        self._after(self.timing.poll_iteration_ns, _Scheduler._scan)

    def _scan(self) -> None:
        if not self.alive:
            return
        # Drain the dirty-row queue in ascending row order — the same
        # visit order as the warp-parallel scan over the full column,
        # skipping the rows whose protocol words did not change since
        # the last wake.
        mtb = self.mtb
        table = self.table
        column = self.column
        col = self.col
        schedulable = []
        pass_mask = table.take_dirty_rows(column)
        while pass_mask:
            low = pass_mask & -pass_mask
            pass_mask ^= low
            row = low.bit_length() - 1
            entry = col[row]
            if entry.ready > READY_SCHEDULING:
                mtb._handle_promotion(row, entry)
                # a promotion may have made a *later* row of this
                # column schedulable; the linear scan would still
                # reach it this pass
                pass_mask |= table.take_dirty_rows_above(column, row)
            if entry.sched:
                entry.sched = 0
                schedulable.append(row)
        if len(schedulable) > 1:
            # priority extension: the warp-parallel scan has every
            # schedulable row in registers anyway; order by task
            # priority (stable, so priority 0 keeps row order — the
            # paper's behaviour)
            schedulable.sort(
                key=lambda r: -(col[r].spec.priority
                                if col[r].spec else 0)
            )
            schedulable.reverse()
        self.rows = schedulable
        self._next_row()

    def _next_row(self) -> None:
        """Place the pass's next schedulable task, or end the pass."""
        mtb = self.mtb
        rows = self.rows
        while rows:
            row = rows.pop()
            entry = self.col[row]
            if mtb.deferred_scheduling and not mtb._can_start(entry):
                entry.sched = 1  # requeue; retry on the next wake
                self.table.mark_row_dirty(self.column, row)
                if mtb.obs is not None:
                    mtb._obs_defer.inc()
                    mtb.obs.instant(f"sched.mtb{self.column}", "defer",
                                    self.engine.now,
                                    task_id=entry.task_id, row=row)
                continue
            self._schedule_task(row, entry)
            return
        if self.woken:
            # the signal pulsed during the pass: the bounce a wait on a
            # fired event takes
            self.engine.call_soon_with(_Scheduler._begin, self)
        else:
            self.parked = True

    # -- one task (Algorithm 1 lines 14-28) -----------------------------------

    def _schedule_task(self, row: int, entry: TaskEntry) -> None:
        mtb = self.mtb
        task = entry.spec
        if task is None:
            # Only reachable under the unsafe single-transaction spawn
            # (§4.2.1): the ready flag overtook the parameters, so the
            # scheduler is holding a garbage kernel pointer.
            raise RuntimeError(
                f"TaskTable corruption at column {self.column} row "
                f"{row}: sched flag set before parameters arrived "
                "(the unordered-PCIe hazard of §4.2.1)"
            )
        executors = len(mtb.warptable.slots)
        if task.warps_per_block > executors:
            raise ValueError(
                f"task {task.name!r}: a threadblock of "
                f"{task.warps_per_block} warps exceeds the MTB's "
                f"{executors} executor warps"
            )
        now = self.engine.now
        if entry.result is not None:
            entry.result.sched_time = now
        if mtb.obs is not None:
            mtb._obs_sched.inc()
            mtb.obs.instant(f"sched.mtb{self.column}", "schedule", now,
                            task_id=entry.task_id, task=task.name, row=row)
        total = task.total_warps
        state = ExecState(
            done_ctr=total,
            block_warps_left=dict.fromkeys(range(task.num_blocks),
                                           task.warps_per_block),
        )
        entry.exec_state = state
        self.row = row
        self.entry = entry
        self.exec_state = state
        if mtb.watchdog_deadline_ns is not None:
            # one-shot deadline armed per task at schedule time; the
            # callback is generation-guarded (taskID + ready state) so
            # a completed task's stale callback is a no-op
            tid = entry.task_id
            self.engine.call_after(
                mtb.watchdog_deadline_ns,
                lambda: mtb._watchdog_check(row, tid),
            )
        if task.shared_mem_bytes > 0 or task.needs_sync:
            # per-threadblock placement (Algorithm 1 lines 17-26)
            self.block = 0
            self._start_block()
        else:
            # schedule every warp of every block in one go (line 28)
            self.block = None
            for block in range(task.num_blocks):
                state.block_sm_offset[block] = None
                state.block_bar_id[block] = -1
            self.base_warp = 0
            self.count = total
            self.placed = 0
            self.sm_index = 0
            self.bar_id = -1
            self._psched_round()

    def _start_block(self) -> None:
        if self.entry.spec.needs_sync:
            self._acquire_barrier()
        else:
            self.bar_id = -1
            self.exec_state.block_bar_id[self.block] = -1
            self._reserve_arena()

    def _acquire_barrier(self) -> None:
        mtb = self.mtb
        # arm BEFORE trying: a warp retiring (and releasing its barrier
        # ID) during this iteration must not be a lost wakeup
        self.armed = mtb.warptable.free_signal.pulse_count
        got = mtb.barriers.acquire(self.entry.spec.warps_per_block)
        if got is None:
            self._retry(_Scheduler._barrier_retry)
            return
        self.bar_id = got
        # record before waiting: a kill during the management window
        # must see (and free) this ID
        self.exec_state.block_bar_id[self.block] = got
        self._after(self.timing.barrier_mgmt_ns, _Scheduler._barrier_done)

    def _barrier_retry(self, _value=None) -> None:
        if not self.alive:
            return
        if self.exec_state.killed:
            self._next_row()
        else:
            self._acquire_barrier()

    def _barrier_done(self) -> None:
        if self.alive:
            self._reserve_arena()

    def _reserve_arena(self) -> None:
        if self.entry.spec.shared_mem_bytes > 0:
            self._alloc_arena()
        else:
            self.offset = None
            self.exec_state.block_sm_offset[self.block] = None
            self._place_block()

    def _alloc_arena(self) -> None:
        mtb = self.mtb
        # arm BEFORE the alloc attempt: the last warp can mark-and-
        # retire inside the smem_alloc_ns window, and its pulse must
        # still wake us
        self.armed = mtb.warptable.free_signal.pulse_count
        mtb.buddy.flush_deferred()  # line 22
        offset = mtb.buddy.alloc(self.entry.spec.shared_mem_bytes)
        if offset is not None:
            # ledger update precedes the alloc-cost wait so a mid-
            # window kill frees it
            self.exec_state.block_sm_offset[self.block] = offset
        self.offset = offset
        self._after(self.timing.smem_alloc_ns, _Scheduler._arena_tried)

    def _arena_tried(self) -> None:
        if not self.alive:
            return
        if self.offset is not None:
            self._place_block()
        else:
            self._retry(_Scheduler._arena_retry)

    def _arena_retry(self, _value=None) -> None:
        if not self.alive:
            return
        if self.exec_state.killed:
            self._next_row()
        else:
            self._alloc_arena()

    def _place_block(self) -> None:
        if self.exec_state.killed:
            self._next_row()
            return
        wpb = self.entry.spec.warps_per_block
        self.base_warp = self.block * wpb
        self.count = wpb
        self.placed = 0
        self.sm_index = self.offset or 0
        self._psched_round()

    # -- Algorithm 2: pSched ---------------------------------------------------

    def _psched_round(self) -> None:
        """One pass of the scheduler warp's threads claiming free
        executor warps in parallel; passes repeat until :attr:`count`
        warps of the task (or block) from :attr:`base_warp` on are
        placed."""
        if self.placed >= self.count:
            self._psched_done()
            return
        # arm before scanning so a retire during the pass is not a lost
        # wakeup
        self.armed = self.mtb.warptable.free_signal.pulse_count
        self._after(self.timing.psched_pass_ns, _Scheduler._psched_pass)

    def _psched_pass(self) -> None:
        if not self.alive:
            return
        if self.exec_state.killed:
            # the task died during the scan window; dispatching its
            # remaining warps would hand executors a freed entry
            self._psched_done()
            return
        mtb = self.mtb
        wt = mtb.warptable
        count = self.count
        placed = self.placed
        take = min(wt.free_count, count - placed)
        if mtb.serial_psched:
            take = min(take, 1)  # ablation: one placement per pass
        row = self.row
        wpb = self.entry.spec.warps_per_block
        dispatched = []
        for _ in range(take):
            # lowest-set-bit pick: the same slot the seed's ascending
            # free-list scan chose, without building it
            slot = wt.lowest_free()
            warp_id = self.base_warp + placed
            wt.dispatch(
                slot, warp_id=warp_id, e_num=row, sm_index=self.sm_index,
                bar_id=self.bar_id, block_id=warp_id // wpb,
            )
            mtb._busy(1)
            placed += 1
            dispatched.append(slot)
        self.placed = placed
        # start only the dispatched executors, after the whole pass
        # (Algorithm 2 sets exec flags, then releases the warps)
        executors = mtb._executors
        for slot in dispatched:
            executor = executors[slot]
            if executor is None:
                # the scheduler sleeps before its next dispatch, so
                # this start has run by then
                executors[slot] = executor = _Executor(mtb, slot)
                self.engine.call_soon(executor.run)
            else:
                executor.run()
        if placed < count:
            self._retry(_Scheduler._psched_retry)
        else:
            self._psched_done()

    def _psched_retry(self, _value=None) -> None:
        if not self.alive:
            return
        if self.exec_state.killed:
            self._psched_done()
        else:
            self._psched_round()

    def _psched_done(self) -> None:
        block = self.block
        if block is None or self.exec_state.killed:
            self._next_row()
            return
        block += 1
        if block < self.entry.spec.num_blocks:
            self.block = block
            self._start_block()
        else:
            self._next_row()


class _Executor:
    """The executor warp of one WarpTable slot (Algorithm 1, lines
    29-43): no process, but :meth:`run` per dispatch and the warp's
    done-waiter.  Its first run is a ready-ring record, where a spawned
    process started; a kill clears :attr:`alive`, so the warp, a
    queued first run or a slow-warp sleep does nothing more.
    """

    __slots__ = ("mtb", "index", "slot", "alive", "entry")

    def __init__(self, mtb: Mtb, index: int) -> None:
        self.mtb = mtb
        self.index = index
        self.slot = mtb.warptable.slots[index]
        self.alive = True

    def run(self) -> None:
        """Start the task warp the scheduler put in this slot, if any."""
        if not (self.alive and self.slot.exec_flag):
            return  # killed, or the slot was retired before this start
        mtb = self.mtb
        entry = self.entry = mtb.table.gpu[mtb.column][self.slot.e_num]
        state: ExecState = entry.exec_state
        if not state.started:
            state.started = True
            if entry.result is not None:
                entry.result.start_time = mtb.engine.now
        if mtb.faults is not None:
            slow = mtb.faults.draw("gpu.slow_warp", entry.spec.name)
            if slow is not None:
                # a down-clocked warp: the whole warp body runs late by
                # the injected stall
                mtb.engine.call_after(slow.magnitude_ns, self._body)
                return
        self._body()

    def _body(self) -> None:
        if not self.alive:
            return  # killed during its slow-warp sleep
        mtb = self.mtb
        slot = self.slot
        task: TaskSpec = self.entry.spec
        faults = mtb.faults
        if faults is not None:
            site = task.name
            if (faults.draw("gpu.stuck_warp", site) is not None
                    or faults.draw("task.no_yield", site) is not None):
                # wedged warp / kernel that never yields: nothing but
                # the watchdog's kill reclaims this slot
                return
            spec = (faults.draw("task.poison", site)
                    or faults.draw("task.raise", site))
            if spec is not None:
                self._fail(f"injected fault {spec.kind}")
                return
        local_warp = slot.warp_id - slot.block_id * task.warps_per_block
        barrier = (mtb.barriers.barrier(slot.bar_id) if slot.bar_id >= 0
                   else None)
        item = mtb.smm.run_phases(
            mtb.gpu.warp_items(task, slot.block_id, local_warp),
            mtb.dram_pool, barrier, mtb.timing.named_barrier_ns)
        if type(item) is Event:
            item._add_waiter(self)
        else:
            self(item)

    def __call__(self, item) -> None:
        """The warp's stop item: retire it, or kill its task."""
        mtb = self.mtb
        if item is None:
            entry = self.entry
            mtb._warp_epilogue(self.slot.e_num, self.slot.block_id, entry,
                               entry.spec, entry.exec_state)
            mtb._retire(self.index)
            if mtb.deferred_scheduling:
                # freed resources may unblock a deferred row
                mtb.table.column_signals[mtb.column].pulse()
        elif isinstance(item, BlockSync):
            # a programming error in the *spawn*, not a kernel failure:
            # diagnose loudly (tests rely on this propagating)
            raise RuntimeError(
                f"task {self.entry.spec.name!r} called syncBlock() but "
                "was spawned without the sync flag (Table 1: "
                "taskSpawn's sync flag allocates the named barrier)"
            )
        else:
            # the kernel raised, or its block's warps disagree on their
            # barrier count: a TaskError in the TaskTable row, not an
            # exception in the engine loop
            self._fail(f"kernel exception: {type(item).__name__}: {item}")

    def _fail(self, reason: str) -> None:
        """Kill the whole task; the sweep skips this warp's own slot."""
        mtb = self.mtb
        mtb.fail_entry(self.slot.e_num, self.entry, reason,
                       skip_slot=self.index)
        mtb._retire(self.index)


class MasterKernel:
    """All MTBs of one (sub)device plus their resource acquisition.

    The classic daemon owns every SMM — 48 MTBs on the Titan X.  A
    compute partition constructs one MasterKernel per partition with
    ``smm_indices`` naming its SMM subset; columns keep their global
    numbering (``smm_index * MTBS_PER_SMM + k``) so every partition
    shares one full-width TaskTable geometry and the elastic controller
    can move whole SMMs between sibling MasterKernels at runtime via
    :meth:`release_smm` / :meth:`adopt_smm`.
    """

    def __init__(self, engine: Engine, gpu: Gpu, table: TaskTable,
                 functional: bool = False,
                 serial_psched: bool = False,
                 deferred_scheduling: bool = False,
                 watchdog_deadline_ns: Optional[float] = None,
                 faults=None, obs=None,
                 smm_indices: Optional[List[int]] = None,
                 dram=None, partition: Optional[str] = None) -> None:
        expected_columns = gpu.spec.num_smms * MTBS_PER_SMM
        if table.num_columns != expected_columns:
            raise ValueError(
                f"TaskTable has {table.num_columns} columns but the GPU "
                f"hosts {expected_columns} MTBs"
            )
        self.engine = engine
        self.gpu = gpu
        self.table = table
        self.arena_bytes = mtb_arena_bytes(gpu.spec)
        self._registers = min(MTB_REGISTERS,
                              gpu.spec.registers_per_smm // MTBS_PER_SMM)
        #: partition name (``None`` for the classic whole-device daemon).
        self.partition = partition
        #: DRAM pool override handed to every MTB (``None`` = device pool).
        self.dram = dram
        self._mtb_opts = dict(
            functional=functional, serial_psched=serial_psched,
            deferred_scheduling=deferred_scheduling,
            watchdog_deadline_ns=watchdog_deadline_ns,
            faults=faults, obs=obs,
        )
        #: SMM indices this MasterKernel currently owns (sorted).
        self.smm_indices: List[int] = []
        #: global column -> live Mtb, for columns this daemon owns.
        self.by_column: Dict[int, Mtb] = {}
        self.mtbs: List[Mtb] = []
        #: Mtbs shut down by :meth:`release_smm`; kept so cumulative
        #: counters and busy-warp integrals survive a shrink.
        self.retired: List[Mtb] = []
        indices = (range(gpu.spec.num_smms) if smm_indices is None
                   else sorted(smm_indices))
        for index in indices:
            self.adopt_smm(index)

    def adopt_smm(self, smm_index: int) -> List[int]:
        """Reserve both MTB slots on one SMM and start its schedulers.

        Used at construction for every owned SMM, and by the elastic
        controller when a partition grows.  Returns the global columns
        now owned.  Raises if the SMM's columns are already owned or
        the SMM cannot host the reservations (still reserved by a
        sibling that has not released them yet).
        """
        smm = self.gpu.smms[smm_index]
        columns: List[int] = []
        for k in range(MTBS_PER_SMM):
            column = smm_index * MTBS_PER_SMM + k
            if column in self.by_column:
                raise ValueError(f"column {column} already owned")
            smm.reserve_block(
                warps=MTB_WARPS, registers=self._registers,
                shared_mem=self.arena_bytes,
            )
            mtb = Mtb(self.engine, self.gpu, smm, self.table, column,
                      arena_bytes=self.arena_bytes, dram=self.dram,
                      partition=self.partition, **self._mtb_opts)
            self.mtbs.append(mtb)
            self.by_column[column] = mtb
            columns.append(column)
        if smm_index not in self.smm_indices:
            self.smm_indices.append(smm_index)
            self.smm_indices.sort()
        return columns

    def release_smm(self, smm_index: int) -> List[int]:
        """Stop both MTBs on one SMM and release their reservations.

        The caller must have drained the columns first (close them in
        the TaskTable and wait for residency to reach zero); resident
        tasks would otherwise be orphaned mid-flight.  Returns the
        global columns given up.
        """
        columns: List[int] = []
        for k in range(MTBS_PER_SMM):
            column = smm_index * MTBS_PER_SMM + k
            mtb = self.by_column.pop(column, None)
            if mtb is None:
                raise ValueError(f"column {column} not owned")
            mtb.shutdown()
            mtb.smm.release_block(
                warps=MTB_WARPS, registers=self._registers,
                shared_mem=self.arena_bytes,
            )
            self.mtbs.remove(mtb)
            self.retired.append(mtb)
            columns.append(column)
        self.smm_indices.remove(smm_index)
        return columns

    def shutdown(self) -> None:
        """Tear the daemon down at the end of an experiment."""
        for mtb in self.mtbs:
            mtb.shutdown()

    def tasks_executed(self) -> int:
        """Total tasks completed across all MTBs (retired included)."""
        return sum(mtb.tasks_executed for mtb in self.mtbs) + \
            sum(mtb.tasks_executed for mtb in self.retired)

    def tasks_failed(self) -> int:
        """Total tasks killed (watchdog, brown-out, kernel exception)."""
        return sum(mtb.tasks_failed for mtb in self.mtbs) + \
            sum(mtb.tasks_failed for mtb in self.retired)

    def watchdog_kills(self) -> List[WatchdogKill]:
        """Every watchdog reclamation, in kill-time order."""
        kills = [k for mtb in self.mtbs for k in mtb.watchdog_kills]
        kills += [k for mtb in self.retired for k in mtb.watchdog_kills]
        kills.sort(key=lambda k: k.when_ns)
        return kills

    def brownout(self, column: int, reason: str = "gpu.brownout") -> int:
        """Brown-out one MTB's SMM residency (see :meth:`Mtb.brownout`)."""
        return self.by_column[column].brownout(reason)

    def busy_integral(self, end: float) -> float:
        """Accumulated busy-executor warp·ns across live and retired
        MTBs — the numerator of a utilization window."""
        total = sum(m.busy_warps.integral(end) for m in self.mtbs)
        total += sum(m.busy_warps.integral(end) for m in self.retired)
        return total

    def useful_occupancy(self, end: Optional[float] = None) -> float:
        """Time-averaged fraction of executor warps running task work
        (over the currently owned MTBs)."""
        end = self.engine.now if end is None else end
        busy = sum(m.busy_warps.average(end) for m in self.mtbs)
        capacity = len(self.mtbs) * WarpTable.EXECUTOR_WARPS
        return busy / capacity
