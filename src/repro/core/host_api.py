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
from typing import Callable, Generator, List, Optional

from repro.core.errors import (
    CudaLaunchError,
    GpuDeadError,
    RetryPolicy,
    TaskError,
    TaskErrorGroup,
)
from repro.core.tasktable import READY_COPIED, READY_SCHEDULING, TaskTable
from repro.gpu.timing import TimingModel
from repro.pcie.bus import Direction
from repro.sim import Engine
from repro.tasks import TaskResult, TaskSpec


def _caller_site() -> str:
    """``file:line`` of the nearest frame outside this module (the
    taskSpawn call site, recorded for TaskError diagnostics)."""
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


#: launch-failure retry schedule of :meth:`PagodaHost.post` and the
#: default of :meth:`PagodaHost.task_spawn_with_retry`.
_RETRY = RetryPolicy()


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
            raise GpuDeadError("the GPU behind this host died mid-run")

    # -- taskSpawn -------------------------------------------------------------

    def task_spawn(self, spec: TaskSpec,
                   result: Optional[TaskResult] = None):
        """Non-blocking spawn; subroutine returns the taskID.

        Blocks only while *no TaskTable entry is free*, in which case it
        reclaims entries via copy-back exactly as the paper's spawner
        does.
        """
        # plain call (not yet a generator frame): grab the caller's
        # file:line before returning the coroutine that does the work
        return self._task_spawn(spec, result, _caller_site())

    def _task_spawn(self, spec: TaskSpec, result: Optional[TaskResult],
                    spawn_site: str) -> Generator:
        self._check_dead()
        if self.faults is not None:
            if self.faults.draw("cuda.launch_fail", spec.name) is not None:
                raise CudaLaunchError(
                    f"taskSpawn of {spec.name!r} failed "
                    "(injected cuda.launch_fail)"
                )
        yield self.timing.spawn_cpu_ns
        while True:
            self._check_dead()
            loc = self.table.take_free_entry()
            if loc is not None:
                break
            yield from self._reclaim_entries()
        col, row = loc
        if result is None:
            result = TaskResult(0, spec.name)
        if not result.spawn_time:
            result.spawn_time = self.engine.now
        result.spawn_site = spawn_site
        prev = (
            self._prev_unpromoted if self.protocol == "pipelined" else None
        )
        task_id = self.table.fill_cpu_entry(col, row, spec, result, prev)
        result.task_id = task_id
        self.spawn_count += 1
        # The posting store costs host time per transaction; delivery
        # (visibility latency) proceeds asynchronously and PCIe posted
        # writes keep spawn order.
        if self.protocol == "pipelined":
            self._prev_unpromoted = task_id
            yield self.table.post_cost(spec.param_bytes, transactions=1)
            # the posting store is done: the serve layer's latency
            # accountant splits queueing from PCIe post at this stamp
            result.post_time = self.engine.now
            # the landing is one timed callback, not a spawned process
            self.table.post_entry_to_gpu(col, row)
            return task_id
        elif self.protocol == "two-copies":
            yield self.table.post_cost(spec.param_bytes, transactions=2)
            copy = self.table.copy_entry_two_transactions(col, row)
        else:  # unsafe-single: the §4.2.1 hazard demonstration
            yield self.table.post_cost(spec.param_bytes, transactions=1)
            copy = self.table.copy_entry_unsafe_single(col, row)
        result.post_time = self.engine.now
        self.engine.spawn(copy, f"spawncopy.{task_id}")
        return task_id

    def _reclaim_entries(self) -> Generator:
        """All CPU-side ready fields are non-zero: finalize the pipeline
        tail, then pull completions back until an entry frees up."""
        yield from self.finalize_last()
        yield from self.table.copy_back()
        if self.table.free_queue_len == 0:
            yield self.timing.host_retry_ns

    # -- pipeline tail finalization ---------------------------------------------

    def finalize_last(self) -> Generator:
        """§4.2.2: with no new spawns arriving, the spawner promotes the
        last task itself — copy back its state and, if it is (-1, 0),
        set it to (1, 1) and push that to the GPU."""
        if self.protocol != "pipelined" or self._prev_unpromoted is None:
            return
        task_id = self._prev_unpromoted
        col, row = self.table.id_map[task_id]
        # copy back just this entry's state
        yield from self.table.bus.transfer(8, Direction.D2H)
        gpu = self.table.gpu[col][row]
        if gpu.task_id != task_id or gpu.ready > READY_SCHEDULING:
            # parameters still crossing the bus, or the GPU scheduler
            # has not resolved the entry's own pipelining pointer yet —
            # keep the pointer and retry on the next idle observation.
            return
        if gpu.protocol_state() == (READY_COPIED, 0):
            cpu = self.table.cpu[col][row]
            cpu.ready = READY_SCHEDULING
            cpu.sched = 1
            if self._prev_unpromoted == task_id:
                self._prev_unpromoted = None
            # guarded landing: the GPU scheduler can resolve a
            # successor's pipelining pointer while this promotion is
            # on the bus; the loser's write must not re-arm `sched`
            yield from self.table.push_state_to_gpu(
                col, row, expect_task_id=task_id)
        else:
            # already promoted (a successor arrived meanwhile) or done
            if self._prev_unpromoted == task_id:
                self._prev_unpromoted = None

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
             name: Optional[str]) -> Generator:
        """The spawner's step for one task; subroutine returns the taskID.

        Issues the input copy (a ``cudaMemcpyAsync`` call, then an H2D
        transfer process called ``name``; ``None`` skips the copy),
        then ``taskSpawn``.  An injected launch failure is re-issued
        after :class:`RetryPolicy`'s capped backoff; the last one
        propagates, as does :class:`GpuDeadError` — also when the
        device died while the entry was being posted.
        """
        if name is not None and spec.input_bytes:
            yield self.timing.memcpy_issue_ns
            self.engine.spawn(
                self.table.bus.transfer(spec.input_bytes, Direction.H2D),
                name)
        attempt = 0
        while True:
            try:
                task_id = yield from self.task_spawn(spec, result)
            except CudaLaunchError:
                attempt += 1
                if attempt >= _RETRY.max_attempts:
                    raise
                yield _RETRY.backoff_ns(attempt - 1)
                continue
            self._check_dead()
            return task_id

    def collect(self, spawning_over: Callable[[], bool],
                finished: Callable[[bool], bool],
                on_complete: Callable[[int], int],
                outcopy_prefix: str) -> Generator:
        """The collector's poll loop, until ``finished`` says stop.

        Each round samples ``idle = spawning_over()`` and, when no
        spawn is coming, promotes the pipeline tail (§4.2.2); then it
        waits out the poll timeout, takes an aggregate copy-back and
        hands every newly finished taskID to ``on_complete``, which
        returns the output bytes to copy back (0 for none; the D2H
        transfer process is ``outcopy_prefix`` + taskID).  The round
        ends the loop when ``finished(idle)`` holds, and a dead host
        ends it at once.  Returns after the output copies landed.
        """
        timing, bus = self.timing, self.table.bus
        transfers = []
        while not self.dead:
            idle = spawning_over()
            if idle:
                yield from self.finalize_last()
            yield timing.wait_timeout_ns
            if self.dead:
                break
            yield from self.table.copy_back()
            for task_id in self.table.drain_completions():
                nbytes = on_complete(task_id)
                if nbytes:
                    yield timing.memcpy_issue_ns
                    transfers.append(self.engine.spawn(
                        bus.transfer(nbytes, Direction.D2H),
                        f"{outcopy_prefix}{task_id}"))
            if finished(idle):
                break
        for proc in transfers:
            yield proc

    # -- hardened spawn (retry with capped exponential backoff) ----------------

    def task_spawn_with_retry(self, spec: TaskSpec,
                              result: Optional[TaskResult] = None,
                              policy: Optional[RetryPolicy] = None):
        """Spawn, wait, and re-spawn on failure (capped exponential
        backoff); subroutine returns the taskID of the attempt that
        completed.  After ``policy.max_attempts`` failures the last
        error propagates."""
        return self._task_spawn_with_retry(spec, result, policy,
                                           _caller_site())

    def _task_spawn_with_retry(self, spec: TaskSpec,
                               result: Optional[TaskResult],
                               policy: Optional[RetryPolicy],
                               spawn_site: str) -> Generator:
        policy = policy or _RETRY
        attempt = 0
        while True:
            try:
                res = result if result is not None else TaskResult(0, spec.name)
                task_id = yield from self._task_spawn(spec, res, spawn_site)
                yield from self.wait(task_id)
                return task_id
            except (TaskError, CudaLaunchError):
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                yield policy.backoff_ns(attempt - 1)
