"""CPU baselines: PThreads task pool and sequential execution.

The paper compared OpenMP data parallelism, OS task scheduling, Python
thread pooling, and PThreads task parallelism, and reported PThreads as
the strongest CPU contender (§6.2) — so that is the baseline we model:
a worker pool of ``num_cores`` threads pulling tasks from a shared
queue, paying a small dispatch cost per task.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.host import HostCpu
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.sim import Engine
from repro.tasks import RunStats, TaskResult, TaskSpec


def run_pthreads(
    tasks: List[TaskSpec],
    num_cores: int = 20,
    timing: Optional[TimingModel] = None,
    spawn_gap_ns: float = 0.0,
) -> RunStats:
    """Execute ``tasks`` on a PThreads-style pool; returns RunStats.

    ``spawn_gap_ns`` optionally spaces task arrivals (all runtimes honor
    the same arrival process so comparisons stay fair).
    """
    timing = timing or DEFAULT_TIMING
    engine = Engine()
    cpu = HostCpu(engine, timing, num_cores=num_cores)
    results: List[TaskResult] = []

    def worker(task: TaskSpec, task_id: int):
        res = TaskResult(task_id, task.name, spawn_time=engine.now)
        res.sched_time = engine.now
        yield cpu.cores.acquire()
        if timing.pthread_dispatch_ns:
            yield timing.pthread_dispatch_ns
        res.start_time = engine.now
        yield cpu.service_time(task.cpu_cost())
        cpu.cores.release()
        res.end_time = engine.now
        results.append(res)

    def spawner():
        """PThreads task parallelism spawns one thread per task; the
        serialized pthread_create in the spawning thread is the wall
        that keeps 20 cores from scaling on narrow tasks."""
        for i, task in enumerate(tasks):
            if spawn_gap_ns:
                yield spawn_gap_ns
            yield timing.pthread_create_ns
            engine.spawn(worker(task, i))

    engine.spawn(spawner(), "pthreads-spawner")
    makespan = engine.run()
    return RunStats(
        runtime=f"pthreads-{num_cores}",
        makespan=makespan,
        results=results,
        compute_time=makespan,
    )


def run_sequential(
    tasks: List[TaskSpec], timing: Optional[TimingModel] = None,
) -> RunStats:
    """Single-core reference execution (Fig. 5's speedup denominator)."""
    timing = timing or DEFAULT_TIMING
    engine = Engine()
    cpu = HostCpu(engine, timing, num_cores=1)
    results: List[TaskResult] = []

    def runner():
        for i, task in enumerate(tasks):
            res = TaskResult(i, task.name, spawn_time=engine.now)
            res.sched_time = res.start_time = engine.now
            yield cpu.service_time(task.cpu_cost())
            res.end_time = engine.now
            results.append(res)

    engine.spawn(runner())
    makespan = engine.run()
    return RunStats(
        runtime="sequential",
        makespan=makespan,
        results=results,
        compute_time=makespan,
    )
