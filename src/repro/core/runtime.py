"""End-to-end Pagoda runner: assemble the stack and execute a task set.

This is the reproduction's equivalent of "link against libpagoda and
run": it brings up a GPU, a PCIe bus, the TaskTable, the MasterKernel
daemon, and a host, then plays a task list through the Table 1 API.

Two host threads mirror Fig. 1a's structure: a *spawner* issuing input
copies and ``taskSpawn`` calls, and a *collector* waiting on
completions and pulling output data back; both run the host pipeline
of :class:`~repro.core.host_api.PagodaHost` (``post``/``collect``),
and both are callback objects (:class:`~repro.sim.engine.Op`), not
processes.
A ``batch_size`` turns the runner into the **Pagoda-Batching**
ablation of Fig. 11 (spawn a batch, wait for it to drain, spawn the
next — concurrent scheduling but no continuous spawning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.host_api import PagodaHost, _caller_site, _Post
from repro.core.masterkernel import MTBS_PER_SMM, MasterKernel
from repro.core.tasktable import TaskTable
from repro.gpu.device import Gpu
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.pcie.bus import PcieBus
from repro.sim import Engine, Process
from repro.tasks import RunStats, TaskResult, TaskSpec


@dataclass
class PagodaConfig:
    """Knobs for one Pagoda run."""

    #: run functional kernels (validated outputs) alongside timing.
    functional: bool = False
    #: spacing between task arrivals at the host (0 = all available).
    spawn_gap_ns: float = 0.0
    #: open-loop arrivals: task i *arrives* at i x spawn_gap_ns on the
    #: wall clock regardless of host progress (a sensor feed); latency
    #: is then measured from arrival, so host-side queueing shows up.
    #: Closed-loop (default) spaces spawns relative to host progress.
    open_loop: bool = False
    #: Pagoda-Batching mode: wait for each batch to finish before
    #: spawning the next (Fig. 11 ablation).  None = continuous.
    batch_size: Optional[int] = None
    #: move per-task input/output payloads over PCIe.
    copy_inputs: bool = True
    copy_outputs: bool = True
    #: TaskTable rows per MTB column (§4.2: Pagoda uses 32).
    rows: int = 32
    #: spawn protocol (§4.2.1): "pipelined" (Pagoda's), "two-copies"
    #: (safe strawman, doubles copy overhead), or "unsafe-single"
    #: (demonstrates the PCIe ordering hazard — may corrupt entries).
    protocol: str = "pipelined"
    #: ablation: disable Algorithm 2's warp-parallel search — the
    #: scheduler places one warp per pass.
    serial_psched: bool = False
    #: extension: requeue tasks that cannot start placement instead of
    #: blocking the scheduler warp (Algorithm 1 blocks).  Required for
    #: priorities to reorder a deep backlog.
    deferred_scheduling: bool = False
    #: optional :class:`repro.faults.FaultPlan`; attaching one wires a
    #: seeded FaultInjector into every layer of the stack.  ``None``
    #: (and a zero-fault plan) leaves scheduling bit-identical to the
    #: fault-free run.
    fault_plan: Optional[object] = None
    #: kill-and-reclaim tasks still on the GPU this long after their
    #: scheduling started (None disables the MasterKernel watchdog).
    watchdog_deadline_ns: Optional[float] = None
    #: optional :class:`repro.obs.Obs`; attaching one instruments every
    #: layer of the stack (engine profiler, PCIe counters, TaskTable
    #: occupancy, scheduler decisions as ``sched.mtb<N>`` instants,
    #: per-SMM utilization timelines)
    #: and puts a ``stats_snapshot`` into ``RunStats.meta``.  ``None``
    #: (the default) leaves the run bit-identical and unslowed.
    obs: Optional[object] = None
    #: optional :class:`repro.partition.PartitionPlan`: split the GPU
    #: into isolated compute partitions (SPX/DPX/QPX or arbitrary SMM
    #: masks), each with its own MasterKernel/TaskTable/host.  A plain
    #: :class:`PagodaSession` cannot host partitions — build a
    #: :class:`repro.partition.PartitionedStack` (or let
    #: ``repro.partition.serve.serve_partitioned`` do it); the serve
    #: frontend dispatches there automatically when this is set.
    partition: Optional[object] = None


class PagodaSession:
    """A live Pagoda stack, for API-level use (examples, tests)."""

    def __init__(self, spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 config: Optional[PagodaConfig] = None,
                 engine: Optional[Engine] = None) -> None:
        self.spec = spec or titan_x()
        self.timing = timing or DEFAULT_TIMING
        self.config = config or PagodaConfig()
        if self.config.partition is not None:
            raise ValueError(
                "PagodaConfig.partition is set: a PagodaSession owns the "
                "whole device; build a repro.partition.PartitionedStack "
                "for partitioned runs"
            )
        # a shared engine lets several sessions (e.g. one per GPU of a
        # multi-GPU node) advance on one simulated clock
        self.engine = engine or Engine()
        #: seeded fault injector shared by every layer (None when the
        #: config carries no fault plan).
        self.faults = None
        if self.config.fault_plan is not None:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(self.engine, self.config.fault_plan)
        #: optional Obs shared by every layer (None = no instrumentation).
        self.obs = self.config.obs
        if self.obs is not None and getattr(self.obs, "profiler", None):
            self.engine.profiler = self.obs.profiler
        if self.obs is not None:
            # start the occupancy memo from a clean slate so the
            # snapshot's hit/miss counters are per-run deterministic
            # (the lru_caches are process-global otherwise)
            from repro.gpu.occupancy import reset_memo_counters
            reset_memo_counters()
        self.gpu = Gpu(self.engine, self.spec, self.timing, obs=self.obs)
        self.bus = PcieBus(self.engine, self.timing,
                           faults=self.faults, obs=self.obs)
        num_columns = self.spec.num_smms * MTBS_PER_SMM
        self.table = TaskTable(
            self.engine, self.bus, num_columns, rows=self.config.rows,
            faults=self.faults,
            obs=self.obs,
        )
        self.master = MasterKernel(
            self.engine, self.gpu, self.table,
            functional=self.config.functional,
            serial_psched=self.config.serial_psched,
            deferred_scheduling=self.config.deferred_scheduling,
            watchdog_deadline_ns=self.config.watchdog_deadline_ns,
            faults=self.faults,
            obs=self.obs,
        )
        self.host = PagodaHost(self.engine, self.table, self.timing,
                               protocol=self.config.protocol,
                               faults=self.faults)
        if self.faults is not None:
            self._arm_timed_faults(num_columns)

    def _arm_timed_faults(self, num_columns: int) -> None:
        """Schedule the plan's time-triggered faults (SMM brown-outs)
        as engine callbacks.  ``gpu.die`` specs are left to the
        serve node's driver, :class:`repro.serve.server.TaskServer`."""
        for spec in self.faults.time_triggered("gpu.brownout"):
            column = (spec.target or 0) % num_columns

            def fire(s=spec, c=column):
                self.master.brownout(c, reason=s.kind)
                self.faults.record_fired(s, f"mtb{c}")

            self.engine.call_at(spec.at_ns, fire)

    def shutdown(self) -> None:
        """Interrupt this component's daemon processes."""
        self.master.shutdown()


def run_pagoda(tasks: List[TaskSpec],
               spec: Optional[GpuSpec] = None,
               timing: Optional[TimingModel] = None,
               config: Optional[PagodaConfig] = None) -> RunStats:
    """Execute ``tasks`` under Pagoda; returns RunStats."""
    config = config or PagodaConfig()
    session = PagodaSession(spec, timing, config)
    engine, host, table, bus = (
        session.engine, session.host, session.table, session.bus
    )
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
    id_to_task = {}
    spawner = engine.spawn(_Spawner(host, tasks, results, id_to_task,
                                    config), "spawner0")

    def output_bytes(task_id):
        task = id_to_task.get(task_id)
        if config.copy_outputs and task is not None:
            return task.output_bytes
        return 0

    # stop on the spawner state sampled before the poll
    collector = engine.spawn(host.collect(
        lambda: not spawner.alive,
        lambda idle: idle and len(table.finished) >= len(tasks),
        output_bytes, "outcopy."), "collector")
    # the watchdog's stale one-shot timers outlive the workload and
    # inflate engine.now; the makespan is the instant the collector
    # finished, not when the queue drained
    finish_time = [0.0]

    def collector_finished(_value):
        finish_time[0] = engine.now

    collector._on_done(collector_finished)
    engine.run(raise_on_deadlock=True)
    if not collector._done:
        raise RuntimeError("Pagoda run did not complete (deadlock?)")
    makespan = finish_time[0]
    session.shutdown()

    executed = session.master.tasks_executed()
    failed = session.master.tasks_failed()
    if executed != len(tasks) and session.faults is None:
        raise RuntimeError(
            f"executed {executed} of {len(tasks)} tasks"
        )
    meta = {
        "entry_copies": table.entry_copies,
        "copy_backs": table.copy_backs,
    }
    if session.faults is not None:
        meta.update({
            "faults_injected": session.faults.injected_count,
            "tasks_failed": failed,
            "task_errors": {e.task_id: e.reason
                            for e in session.host.task_errors()},
            "watchdog_kills": len(session.master.watchdog_kills()),
            "quarantined_slots": sorted(table.quarantined),
        })
    if session.obs is not None:
        from repro.gpu.occupancy import memo_stats
        memo = memo_stats()
        session.obs.counter("gpu.occupancy.memo_hits").inc(memo["hits"])
        session.obs.counter("gpu.occupancy.memo_misses").inc(memo["misses"])
        meta["stats_snapshot"] = session.obs.snapshot(engine)
    return RunStats(
        runtime="pagoda" if not config.batch_size else "pagoda-batching",
        makespan=makespan,
        results=results,
        copy_time=bus.total_busy_time(),
        compute_time=max(r.end_time for r in results) if results else 0.0,
        mean_occupancy=session.master.useful_occupancy(makespan),
        meta=meta,
    )


class _Spawner(_Post):
    """Fig. 1a's spawner thread for :func:`run_pagoda`, as a callback
    object: each task arrives (open loop: at its own instant; closed
    loop: ``spawn_gap_ns`` after the last post) and is posted with its
    input copy by :meth:`PagodaHost.post`'s steps, run on this object;
    every ``batch_size`` posts it waits for the batch to drain
    (Pagoda-Batching)."""

    __slots__ = ("tasks", "results", "id_to_task", "config", "index",
                 "gap")

    def __init__(self, host: PagodaHost, tasks: List[TaskSpec],
                 results: List[TaskResult], id_to_task: dict,
                 config: PagodaConfig) -> None:
        Process.__init__(self, host.engine, None, "spawner")
        self.host = host
        # the TaskError diagnostics name this runner as the spawn site
        self.spawn_site = _caller_site()
        self.tasks = tasks
        self.results = results
        self.id_to_task = id_to_task
        self.config = config
        self.index = 0
        self.gap = config.spawn_gap_ns

    def _begin(self) -> None:
        """The next task arrives."""
        i = self.index
        if i == len(self.tasks):
            self._finish(None)
            return
        engine = self.engine
        gap = self.gap
        if gap:
            if self.config.open_loop:
                arrival = (i + 1) * gap
                if engine.now >= arrival:
                    self.results[i].spawn_time = arrival
                    self._post_next()
                    return
                gap = arrival - engine.now
            self._after(gap, _Spawner._arrived)
        else:
            self.results[i].spawn_time = engine.now
            self._post_next()

    def _arrived(self) -> None:
        i = self.index
        self.results[i].spawn_time = ((i + 1) * self.gap
                                      if self.config.open_loop
                                      else self.engine.now)
        self._post_next()

    def _post_next(self) -> None:
        i = self.index
        self.spec = self.tasks[i]
        self.task_result = self.results[i]
        self.copy_name = f"incopy.{i}" if self.config.copy_inputs else None
        self._post()

    def _posted(self, task_id: int) -> None:
        i = self.index
        self.id_to_task[task_id] = self.tasks[i]
        self.index = i + 1
        batch = self.config.batch_size
        if batch and (i + 1) % batch == 0:
            # Table 1's waitAll is a generator: run it as the spawner's
            # subroutine, on a process started here and now
            wait = Process(self.engine, self.host.wait_all(), self.name)
            wait()
            if not wait._done:
                self.waiting_on = wait
                wait._waiters.append(self._next)
                return
        self._begin()

    def _next(self, _value=None) -> None:
        self._begin()
