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
from repro.sim import Engine, Process, ProcessorSharing
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
    #: layer of the stack (PCIe counters, TaskTable occupancy,
    #: scheduler decisions as ``sched.mtb<N>`` instants, per-SMM
    #: utilization timelines) and puts a ``stats_snapshot`` into
    #: ``RunStats.meta``.  ``None`` (the default) leaves the run
    #: bit-identical and unslowed.
    obs: Optional[object] = None


def boot_gpu(engine: Engine, spec: GpuSpec, timing: TimingModel,
             obs=None) -> Gpu:
    """Bring up one simulated device on ``engine``.  With an Obs
    attached, the occupancy memo's hit/miss counters restart from zero
    so the snapshot's counts are per-run deterministic (the lru_caches
    are process-global)."""
    if obs is not None:
        from repro.gpu.occupancy import reset_memo_counters
        reset_memo_counters()
    return Gpu(engine, spec, timing, obs=obs)


class PagodaSession:
    """A live Pagoda stack: the host, the TaskTable and the MasterKernel
    on one device or on a subset of its SMMs.

    Every Pagoda stack is one of these: :func:`run_pagoda`'s, each GPU
    a :class:`repro.serve.TaskServer` builds (so serve's, multi-GPU
    nodes' and the cluster's), the ablations' and each compute
    partition's (:class:`repro.partition.Partition`, handed to its
    partition server as the server's one session).

    A session boots its own device unless it is handed a ``gpu``
    (shared the way ``engine`` is), and owns ``smms`` of it — all of
    them by default.  A session with a ``name`` is a compute
    partition: its TaskTable recycles entries FIFO, its MTBs draw on
    their own DRAM slice rated by its share of the SMMs, and its fault
    sites read ``"<name>.mtb<c>"``.
    """

    def __init__(self, spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 config: Optional[PagodaConfig] = None,
                 engine: Optional[Engine] = None,
                 gpu: Optional[Gpu] = None,
                 smms: Optional[List[int]] = None,
                 name: Optional[str] = None) -> None:
        self.config = config = config or PagodaConfig()
        #: partition name (``None`` for a session owning a whole device).
        self.name = name
        # a shared engine lets several sessions (e.g. one per GPU of a
        # multi-GPU node) advance on one simulated clock
        self.engine = engine or Engine()
        #: seeded fault injector shared by every layer (None when the
        #: config carries no fault plan).
        self.faults = None
        if config.fault_plan is not None:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(self.engine, config.fault_plan)
        #: optional Obs shared by every layer (None = no instrumentation).
        self.obs = config.obs
        if gpu is None:
            gpu = boot_gpu(self.engine, spec or titan_x(),
                           timing or DEFAULT_TIMING, self.obs)
        self.gpu = gpu
        self.spec = gpu.spec
        self.timing = gpu.timing
        smms = range(self.spec.num_smms) if smms is None else sorted(smms)
        columns = [s * MTBS_PER_SMM + k
                   for s in smms for k in range(MTBS_PER_SMM)]
        self.bus = PcieBus(self.engine, self.timing,
                           faults=self.faults, obs=self.obs)
        self.table = TaskTable(
            self.engine, self.bus, self.spec.num_smms * MTBS_PER_SMM,
            rows=config.rows, faults=self.faults, obs=self.obs,
            open_columns=columns,
            free_order="lifo" if name is None else "fifo",
        )
        dram = None
        if name is not None:
            # a partition's DRAM slice is rated by its boot share of
            # the SMM array and fixed across elastic moves, so its
            # memory timing never depends on sibling activity
            dram = ProcessorSharing(
                self.engine,
                rate=self.timing.dram_bytes_per_ns(
                    self.spec.dram_bandwidth_gbps)
                * (len(smms) / self.spec.num_smms),
                name=f"dram.{name}",
            )
        self.master = MasterKernel(
            self.engine, gpu, self.table,
            functional=config.functional,
            serial_psched=config.serial_psched,
            deferred_scheduling=config.deferred_scheduling,
            watchdog_deadline_ns=config.watchdog_deadline_ns,
            faults=self.faults, obs=self.obs,
            smm_indices=smms, dram=dram, partition=name,
        )
        self.host = PagodaHost(self.engine, self.table, self.timing,
                               protocol=config.protocol,
                               faults=self.faults)
        if self.faults is not None:
            self._arm_timed_faults(columns)

    def _arm_timed_faults(self, boot_columns: List[int]) -> None:
        """Schedule the plan's time-triggered faults (SMM brown-outs)
        as engine callbacks.  A target wraps within the boot columns;
        a brown-out of a column the session no longer owns (a
        partition lent its SMM away) fires nothing and records
        nothing.  ``gpu.die`` specs are left to the serve node's
        driver, :class:`repro.serve.server.TaskServer`."""
        prefix = "mtb" if self.name is None else f"{self.name}.mtb"
        for spec in self.faults.time_triggered("gpu.brownout"):
            column = boot_columns[(spec.target or 0) % len(boot_columns)]

            def fire(s=spec, c=column):
                if c in self.master.by_column:
                    self.master.brownout(c, reason=s.kind)
                    self.faults.record_fired(s, f"{prefix}{c}")

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
    if collector.alive:
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
            if wait.alive:
                self.waiting_on = wait
                wait._waiters.append(self._next)
                return
        self._begin()

    def _next(self, _value=None) -> None:
        self._begin()
