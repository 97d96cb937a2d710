"""Pagoda's CPU-side API (Table 1): taskSpawn, wait, check, waitAll.

The host owns the CPU TaskTable mirror.  A spawn finds a free entry,
fills it, and fires one asynchronous H2D transaction; the ready field
carries the pipelining pointer (the previous spawn's taskID), so in
steady state each task costs exactly one cudamemcopy (§4.2.1).

Completions flow back only through lazy aggregate copy-backs (§4.2.2):
``wait``/``waitAll`` poll with a timeout and then *force* a copy-back;
when the spawner runs out of free entries it reclaims the same way.

Fig. 1a's two host threads live here too, once for every driver:
:meth:`PagodaHost.post` is the spawner's step (input copy, then a
``taskSpawn`` that rides out launch failures) and
:meth:`PagodaHost.collect` is the collector's poll loop (tail
promotion, aggregate copy-back, output copies).
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Callable, Deque, Generator, List, Optional

from repro.core.errors import (
    RETRY_ATTEMPTS,
    CudaLaunchError,
    GpuDeadError,
    TaskError,
    TaskErrorGroup,
    retry_backoff_ns,
)
from repro.core.tasktable import READY_COPIED, READY_SCHEDULING, TaskTable
from repro.gpu.timing import TimingModel
from repro.pcie.bus import Direction
from repro.sim import Engine, Process
from repro.sim.engine import Op
from repro.tasks import TaskResult, TaskSpec


def _caller_site() -> str:
    """``file:line`` of the nearest frame outside this module (the
    taskSpawn call site, recorded for TaskError diagnostics)."""
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


_DEAD = "the GPU behind this host died mid-run"

#: spawn-protocol variants (§4.2.1): the pipelined taskID protocol is
#: Pagoda's; the other two exist as ablations/demonstrations.
PROTOCOLS = ("pipelined", "two-copies", "unsafe-single")


class PagodaHost:
    """Host-side runtime state for one Pagoda session."""

    def __init__(self, engine: Engine, table: TaskTable,
                 timing: TimingModel, protocol: str = "pipelined",
                 faults=None) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown spawn protocol {protocol!r}; have {PROTOCOLS}"
            )
        self.engine = engine
        self.table = table
        self.timing = timing
        self.protocol = protocol
        #: optional :class:`repro.faults.FaultInjector`; spawns draw
        #: ``cuda.launch_fail``.
        self.faults = faults
        #: set by multi-GPU failover when this host's device dies:
        #: spawn/wait loops raise :class:`GpuDeadError` instead of
        #: spinning on a device that will never answer.
        self.dead = False
        #: taskID of the most recent spawn not yet promoted by a
        #: successor or by idle finalization (pipelined protocol only).
        self._prev_unpromoted: Optional[int] = None
        self.spawn_count = 0

    def _check_dead(self) -> None:
        if self.dead:
            raise GpuDeadError(_DEAD)

    # -- taskSpawn -------------------------------------------------------------

    def task_spawn(self, spec: TaskSpec,
                   result: Optional[TaskResult] = None,
                   spawn_site: Optional[str] = None,
                   into: Optional["_TaskSpawn"] = None) -> "_TaskSpawn":
        """Non-blocking spawn; ``yield from`` it for the taskID.

        Blocks only while *no TaskTable entry is free*, in which case it
        reclaims entries via copy-back exactly as the paper's spawner
        does.  ``spawn_site`` (``file:line``, for :class:`TaskError`
        diagnostics) defaults to the caller's line.  A dead device
        raises :class:`GpuDeadError` here, at the call.  ``into`` runs
        the spawn on that (idle) operation instead of a new one:
        :meth:`post` chains its steps and the spawn's on one object.
        """
        self._check_dead()
        if spawn_site is None:
            spawn_site = _caller_site()
        if into is None:
            return _TaskSpawn(self, spec, result, spawn_site)
        into.spec = spec
        into.task_result = result
        into.spawn_site = spawn_site
        return into

    # -- pipeline tail finalization ---------------------------------------------

    def finalize_last(self) -> Op:
        """§4.2.2: with no new spawns arriving, the spawner promotes the
        last task itself — copy back its state and, if it is (-1, 0),
        set it to (1, 1) and push that to the GPU.  Nothing to promote
        returns an operation that already finished."""
        if self.protocol != "pipelined" or self._prev_unpromoted is None:
            return _NOTHING
        return _FinalizeLast(self)

    # -- wait / check / waitAll ----------------------------------------------

    def check(self, task_id: int) -> bool:
        """Table 1's check(): true once the host has *observed* the task
        finish (which requires a copy-back to have happened)."""
        return task_id in self.table.finished

    def wait(self, task_id: int) -> Generator:
        """Block until the given task is observed complete.

        Raises ``KeyError`` for a taskID that was never issued (waiting
        on it would otherwise spin forever), :class:`TaskError` if the
        task *failed* instead of completing (the error carries the task
        id, slot, and taskSpawn call site), and :class:`GpuDeadError`
        if the device dies while waiting — a failed task is always an
        error, never a hang."""
        if task_id not in self.table.id_map:
            raise KeyError(f"unknown taskID {task_id}")
        while not self.check(task_id):
            self._check_dead()
            yield from self.finalize_last()
            yield self.timing.wait_timeout_ns
            yield from self.table.copy_back()
        err = self.table.errors.get(task_id)
        if err is not None:
            raise err

    def task_errors(self) -> List[TaskError]:
        """Failures observed so far, in taskID order."""
        return [self.table.errors[tid] for tid in sorted(self.table.errors)]

    def wait_all(self) -> Generator:
        """Block until every spawned task is observed complete.

        Raises :class:`TaskError` (one failure) or
        :class:`TaskErrorGroup` (several) after *all* tasks have been
        observed — failures surface, they never wedge the wait."""
        while len(self.table.finished) < self.spawn_count:
            self._check_dead()
            yield from self.finalize_last()
            yield self.timing.wait_timeout_ns
            yield from self.table.copy_back()
        errs = self.task_errors()
        if errs:
            raise errs[0] if len(errs) == 1 else TaskErrorGroup(errs)

    # -- the host pipeline (Fig. 1a's spawner and collector threads) ----------

    def post(self, spec: TaskSpec, result: TaskResult,
             name: Optional[str]) -> "_Post":
        """The spawner's step for one task; ``yield from`` it for the
        taskID.

        Issues the input copy (a ``cudaMemcpyAsync`` call, then an H2D
        transfer started under ``name``; ``None`` skips the copy),
        then ``taskSpawn``.  An injected launch failure is re-issued
        after a capped backoff (:func:`~repro.core.errors.retry_backoff_ns`);
        the last one propagates, as does :class:`GpuDeadError` — also when the
        device died while the entry was being posted.
        """
        return _Post(self, spec, result, name, _caller_site())

    def collect(self, spawning_over: Callable[[], bool],
                finished: Callable[[bool], bool],
                on_complete: Callable[[int], int],
                outcopy_prefix: str) -> "_Collect":
        """The collector's poll loop, until ``finished`` says stop.

        Each round samples ``idle = spawning_over()`` and, when no
        spawn is coming, promotes the pipeline tail (§4.2.2); then it
        waits out the poll timeout, takes an aggregate copy-back and
        hands every newly finished taskID to ``on_complete``, which
        returns the output bytes to copy back (0 for none; the D2H
        transfer is started as ``outcopy_prefix`` + taskID).  The round
        ends the loop when ``finished(idle)`` holds, and a dead host
        ends it at once.  Finishes after the output copies landed.
        """
        return _Collect(self, spawning_over, finished, on_complete,
                        outcopy_prefix)


class _Finished(Op):
    """An operation that has already finished (nothing to do)."""

    __slots__ = ()

    def __init__(self) -> None:
        Process.__init__(self, None, None, "finished")
        self.alive = False

    def _begin(self) -> None:
        pass


#: what :meth:`PagodaHost.finalize_last` returns when there is nothing
#: to promote.
_NOTHING = _Finished()


class _TaskSpawn(Op):
    """``taskSpawn`` as a callback object (its result is the taskID).

    The host's spawn cost, then a free entry — reclaimed by tail
    finalization and aggregate copy-backs while none is free — then
    the entry's posting store and the posted write; :meth:`_spawned`
    ends it.
    """

    __slots__ = ("host", "spec", "task_result", "spawn_site", "col_row")

    def __init__(self, host: PagodaHost, spec: TaskSpec,
                 result: Optional[TaskResult], spawn_site: str) -> None:
        Process.__init__(self, host.engine, None, "task_spawn")
        self.host = host
        self.spec = spec
        self.task_result = result
        self.spawn_site = spawn_site

    def _begin(self) -> None:
        host = self.host
        if host.faults is not None:
            if host.faults.draw("cuda.launch_fail",
                                self.spec.name) is not None:
                raise CudaLaunchError(
                    f"taskSpawn of {self.spec.name!r} failed "
                    "(injected cuda.launch_fail)"
                )
        self._after(host.timing.spawn_cpu_ns, _TaskSpawn._claim)

    def _claim(self) -> None:
        host = self.host
        if host.dead:
            self._fail(GpuDeadError(_DEAD))
            return
        loc = host.table.take_free_entry()
        if loc is None:
            # every CPU-side ready field is non-zero: finalize the
            # pipeline tail, then pull completions back until an entry
            # frees up
            if self._join(host.finalize_last(), self._finalized):
                self._finalized()
            return
        spec = self.spec
        col, row = self.col_row = loc
        result = self.task_result
        if result is None:
            result = self.task_result = TaskResult(0, spec.name)
        if not result.spawn_time:
            result.spawn_time = host.engine.now
        result.spawn_site = self.spawn_site
        pipelined = host.protocol == "pipelined"
        prev = host._prev_unpromoted if pipelined else None
        task_id = host.table.fill_cpu_entry(col, row, spec, result, prev)
        result.task_id = task_id
        host.spawn_count += 1
        # The posting store costs host time per transaction; delivery
        # (visibility latency) proceeds asynchronously and PCIe posted
        # writes keep spawn order.
        if pipelined:
            host._prev_unpromoted = task_id
            self._after(host.table.post_cost(spec.param_bytes, 1),
                        _TaskSpawn._stored)
        else:
            copies = 2 if host.protocol == "two-copies" else 1
            self._after(host.table.post_cost(spec.param_bytes, copies),
                        _TaskSpawn._stored_copy)

    def _finalized(self, _value=None) -> None:
        if self._join(self.host.table.copy_back(), self._copied):
            self._copied()

    def _copied(self, _value=None) -> None:
        if self.host.table.free_queue_len == 0:
            self._after(self.host.timing.host_retry_ns, _TaskSpawn._claim)
        else:
            self._claim()

    def _stored(self) -> None:
        # the posting store is done: the serve layer's latency
        # accountant splits queueing from PCIe post at this stamp
        result = self.task_result
        result.post_time = self.engine.now
        # the landing is one timed callback, not a spawned process
        self.host.table.post_entry_to_gpu(*self.col_row)
        self._spawned(result.task_id)

    def _stored_copy(self) -> None:
        result = self.task_result
        result.post_time = self.engine.now
        # the copy starts from a ready-ring record, at the slot a
        # spawned copy process would start at
        self.engine.call_soon_with(_TaskSpawn._copy, self)
        self._spawned(result.task_id)

    def _copy(self) -> None:
        table = self.host.table
        if self.host.protocol == "two-copies":
            table.copy_entry_two_transactions(*self.col_row)
        else:  # unsafe-single: the §4.2.1 hazard demonstration
            table.copy_entry_unsafe_single(*self.col_row)

    def _spawned(self, task_id: int) -> None:
        """The entry is posted under ``task_id``."""
        self._finish(task_id)


class _FinalizeLast(Op):
    """:meth:`PagodaHost.finalize_last` as a callback object: copy back
    the tail entry's state, then promote it if it is still (-1, 0)."""

    __slots__ = ("host", "task_id")

    def __init__(self, host: PagodaHost) -> None:
        Process.__init__(self, host.engine, None, "finalize_last")
        self.host = host
        self.task_id = host._prev_unpromoted

    def _begin(self) -> None:
        # copy back just this entry's state
        if self._join(self.host.table.bus.transfer(8, Direction.D2H),
                      self._copied):
            self._copied()

    def _copied(self, _value=None) -> None:
        host = self.host
        table = host.table
        task_id = self.task_id
        col, row = table.id_map[task_id]
        gpu = table.gpu[col][row]
        if gpu.task_id != task_id or gpu.ready > READY_SCHEDULING:
            # parameters still crossing the bus, or the GPU scheduler
            # has not resolved the entry's own pipelining pointer yet —
            # keep the pointer and retry on the next idle observation.
            self._finish(None)
            return
        if host._prev_unpromoted == task_id:
            host._prev_unpromoted = None
        if gpu.protocol_state() == (READY_COPIED, 0):
            cpu = table.cpu[col][row]
            cpu.ready = READY_SCHEDULING
            cpu.sched = 1
            # guarded landing: the GPU scheduler can resolve a
            # successor's pipelining pointer while this promotion is on
            # the bus; the loser's write must not re-arm `sched`
            if not self._join(table.push_state_to_gpu(
                    col, row, expect_task_id=task_id), self._finish):
                return
        # else: already promoted (a successor arrived meanwhile) or done
        self._finish(None)


class _Post(_TaskSpawn):
    """:meth:`PagodaHost.post` as a callback object (its result is the
    taskID): the input copy's issue, then the spawn, run on this object
    (``task_spawn(..., into=self)``).  A stream of posts
    (:func:`repro.core.runtime.run_pagoda`'s spawner) reuses these steps
    on one object by overriding :meth:`_posted`."""

    __slots__ = ("copy_name", "attempt")

    def __init__(self, host: PagodaHost, spec: TaskSpec,
                 result: TaskResult, name: Optional[str],
                 spawn_site: str) -> None:
        Process.__init__(self, host.engine, None, "post")
        self.host = host
        self.spec = spec
        self.task_result = result
        self.spawn_site = spawn_site
        self.copy_name = name

    def _begin(self) -> None:
        self._post()

    def _post(self) -> None:
        """Post :attr:`spec`: the input copy's issue, then taskSpawn."""
        self.attempt = 0
        if self.copy_name is not None and self.spec.input_bytes:
            self._after(self.host.timing.memcpy_issue_ns, _Post._issued)
        else:
            self._spawn()

    def _issued(self) -> None:
        host = self.host
        host.engine.spawn(
            host.table.bus.transfer(self.spec.input_bytes, Direction.H2D),
            self.copy_name)
        self._spawn()

    def _spawn(self) -> None:
        try:
            _TaskSpawn._begin(self.host.task_spawn(
                self.spec, self.task_result, self.spawn_site, into=self))
        except CudaLaunchError as exc:
            self._retry(exc)
        except Exception as exc:
            self._fail(exc)

    def _retry(self, exc: CudaLaunchError) -> None:
        self.attempt += 1
        if self.attempt >= RETRY_ATTEMPTS:
            self._fail(exc)
        else:
            self._after(retry_backoff_ns(self.attempt - 1), _Post._spawn)

    def _spawned(self, task_id: int) -> None:
        if self.host.dead:
            self._fail(GpuDeadError(_DEAD))
        else:
            self._posted(task_id)

    def _posted(self, task_id: int) -> None:
        """The entry is posted."""
        self._finish(task_id)


class _Collect(Op):
    """:meth:`PagodaHost.collect` as a callback object."""

    __slots__ = ("host", "spawning_over", "finished", "on_complete",
                 "outcopy_prefix", "idle", "completed", "outcopy",
                 "transfers")

    def __init__(self, host: PagodaHost, spawning_over, finished,
                 on_complete, outcopy_prefix: str) -> None:
        Process.__init__(self, host.engine, None, "collect")
        self.host = host
        self.spawning_over = spawning_over
        self.finished = finished
        self.on_complete = on_complete
        self.outcopy_prefix = outcopy_prefix
        #: newly finished taskIDs still to hand to ``on_complete``,
        #: last first
        self.completed: List[int] = []
        #: ``(taskID, bytes)`` of the output copy being issued
        self.outcopy = None
        #: the output copies started, joined in start order at the end
        self.transfers: Deque[Op] = deque()

    def _begin(self) -> None:
        self._round()

    def _round(self) -> None:
        host = self.host
        if host.dead:
            self._join_next()
            return
        self.idle = idle = self.spawning_over()
        if not idle or self._join(host.finalize_last(), self._poll):
            self._poll()

    def _poll(self, _value=None) -> None:
        self._after(self.host.timing.wait_timeout_ns, _Collect._polled)

    def _polled(self) -> None:
        host = self.host
        if host.dead:
            self._join_next()
        elif self._join(host.table.copy_back(), self._copied):
            self._copied()

    def _copied(self, _value=None) -> None:
        self.completed = self.host.table.drain_completions()
        self.completed.reverse()
        self._complete_next()

    def _complete_next(self) -> None:
        completed = self.completed
        while completed:
            task_id = completed.pop()
            nbytes = self.on_complete(task_id)
            if nbytes:
                self.outcopy = (task_id, nbytes)
                self._after(self.host.timing.memcpy_issue_ns,
                            _Collect._issued)
                return
        if self.finished(self.idle):
            self._join_next()
        else:
            self._round()

    def _issued(self) -> None:
        task_id, nbytes = self.outcopy
        engine = self.engine
        self.transfers.append(engine.spawn(
            self.host.table.bus.transfer(nbytes, Direction.D2H),
            f"{self.outcopy_prefix}{task_id}"))
        self._complete_next()

    def _join_next(self, _value=None) -> None:
        """Join the output copies in start order, as ``yield proc``
        does: a finished one bounces through the ready ring."""
        transfers = self.transfers
        if not transfers:
            # the caller's callbacks usually hold the caller, whose
            # process may still point here (its ``waiting_on``): drop
            # them so no cycle outlives the run
            self.spawning_over = self.finished = self.on_complete = None
            self._finish(None)
            return
        transfer = transfers.popleft()
        if not transfer.alive:
            self.engine.call_soon_with(_Collect._join_next, self)
        else:
            self.waiting_on = transfer
            transfer._waiters.append(self._join_next)
