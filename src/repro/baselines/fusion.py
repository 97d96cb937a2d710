"""Static task fusion baseline (§6.3).

All tasks are fused into one monolithic kernel at build time: one
threadblock per task, every block shaped identically (the programmer
picks one thread count for all sub-tasks — the paper uses 256 — and the
kernel's resource allocation is dictated by the hungriest sub-task).
The fused kernel cannot finish until its slowest block does, which is
the latency behaviour Fig. 10 measures, and it needs the full task list
statically (no SLUD).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.cuda.runtime import CudaRuntime
from repro.gpu.device import Gpu
from repro.gpu.phases import phase_table
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.pcie.bus import Direction, PcieBus
from repro.sim import Engine
from repro.tasks import RunStats, TaskResult, TaskSpec

#: The paper's heuristic thread count per fused sub-task (§6.3).
DEFAULT_FUSED_THREADS = 256


def _sub_key(fused_task, block_id, warp_id):
    """The phase key of the sub-task block ``block_id`` runs; ``None``
    (the generator path) when its kernel is unkeyed."""
    sub = fused_task.work[block_id]
    phase_key = getattr(sub.kernel, "phase_key", None)
    key = phase_key(sub, 0, warp_id) if phase_key else None
    return None if key is None else (sub.kernel, key)


@phase_table(_sub_key)
def _fused_kernel(fused_task, block_id, warp_id):
    """Block ``block_id`` executes sub-task ``block_id`` re-shaped to
    the fused thread count."""
    sub = fused_task.work[block_id]
    yield from sub.kernel(sub, 0, warp_id)


def fuse_tasks(tasks: List[TaskSpec],
               fused_threads: int = DEFAULT_FUSED_THREADS) -> TaskSpec:
    """Build the monolithic fused kernel: one block per sub-task.

    Resource allocation is uniform: shared memory and registers are the
    max over sub-tasks (the static-fusion occupancy penalty the paper
    calls out in §1).
    """
    if not tasks:
        raise ValueError("nothing to fuse")
    for task in tasks:
        if task.num_blocks != 1:
            raise ValueError(
                f"static fusion maps one block per task; {task.name!r} "
                f"has {task.num_blocks} blocks"
            )

    # re-shape every sub-task to the uniform thread count so its cost
    # model distributes the same total work over fused_threads lanes
    reshaped = [
        dataclasses.replace(t, threads_per_block=fused_threads)
        for t in tasks
    ]
    return TaskSpec(
        name=f"fused[{len(tasks)}]",
        threads_per_block=fused_threads,
        num_blocks=len(tasks),
        kernel=_fused_kernel,
        shared_mem_bytes=max(t.shared_mem_bytes for t in tasks),
        needs_sync=any(t.needs_sync for t in tasks),
        regs_per_thread=max(t.regs_per_thread for t in tasks),
        input_bytes=sum(t.input_bytes for t in tasks),
        output_bytes=sum(t.output_bytes for t in tasks),
        work=reshaped,
    )


def run_static_fusion(tasks: List[TaskSpec],
                      spec: Optional[GpuSpec] = None,
                      timing: Optional[TimingModel] = None,
                      fused_threads: int = DEFAULT_FUSED_THREADS,
                      copy_inputs: bool = True,
                      copy_outputs: bool = True) -> RunStats:
    """Execute ``tasks`` as one statically fused kernel."""
    timing = timing or DEFAULT_TIMING
    engine = Engine()
    gpu = Gpu(engine, spec or titan_x(), timing)
    bus = PcieBus(engine, timing)
    rt = CudaRuntime(engine, gpu, bus)
    fused = fuse_tasks(tasks, fused_threads)
    stream = rt.create_stream("fused")
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
    fused_result = TaskResult(0, fused.name)

    def host():
        # Marshal every sub-task's parameters and stage its inputs.
        # Nothing overlaps the fused kernel: all inputs must land
        # before the single launch, and no output can move until the
        # whole kernel retires — the §6.3 pipeline-less structure.
        in_copies = []
        for i, task in enumerate(tasks):
            results[i].spawn_time = engine.now
            yield timing.fusion_task_setup_ns
            if copy_inputs and task.input_bytes:
                in_copies.append(engine.spawn(
                    bus.transfer(task.input_bytes, Direction.H2D),
                    f"fusion.incopy.{i}",
                ))
        for proc in in_copies:
            yield proc
        ev = yield from rt.host_launch(fused, stream, fused_result)
        yield ev
        out_copies = []
        for i, task in enumerate(tasks):
            if copy_outputs and task.output_bytes:
                out_copies.append(engine.spawn(
                    bus.transfer(task.output_bytes, Direction.D2H),
                    f"fusion.outcopy.{i}",
                ))
        for proc in out_copies:
            yield proc

    host_proc = engine.spawn(host(), "fusion-host")
    engine.run()
    if host_proc.alive:
        raise RuntimeError("fused run did not complete (deadlock?)")
    makespan = engine.now
    # every task 'completes' only when the fused kernel does — the
    # Fig. 10 latency penalty of static fusion
    for res in results:
        res.sched_time = fused_result.sched_time
        res.start_time = fused_result.start_time
        res.end_time = fused_result.end_time
    return RunStats(
        runtime="static-fusion",
        makespan=makespan,
        results=results,
        copy_time=bus.total_busy_time(),
        compute_time=fused_result.end_time,
        mean_occupancy=gpu.mean_occupancy(makespan),
        meta={"fused_threads": fused_threads},
    )
