"""Multi-GPU Pagoda — the extension §8 leaves open.

The paper "virtualizes the compute resources of a *single* GPU at the
granularity of a warp" (§7's contrast with Sengupta et al.).  This
module extends the runtime across several GPUs on one node: each GPU
runs its own MasterKernel + TaskTable over its own PCIe link, and the
host load-balances ``taskSpawn`` calls by shortest observed queue.

Everything else is unchanged — the per-GPU stack is exactly
:class:`~repro.core.runtime.PagodaSession`, sharing one simulated
clock.

**Graceful degradation**: a GPU can die mid-run (an injected
``gpu.die`` fault or an explicit :meth:`MultiGpuPagoda.kill_gpu`).
The node marks the device's host dead — its spawn/wait loops raise
:class:`~repro.core.errors.GpuDeadError` instead of spinning — and the
driver re-queues every task that was in flight on the dead device onto
the survivors.  Throughput degrades proportionally; the run never
deadlocks, and each failover is recorded as a
:class:`~repro.core.errors.DegradationEvent`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.core.errors import DegradationEvent, GpuDeadError
from repro.core.runtime import PagodaConfig, PagodaSession
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.sim import Engine
from repro.tasks import RunStats, TaskResult, TaskSpec


class MultiGpuPagoda:
    """N independent Pagoda stacks behind one load-balancing host."""

    def __init__(self, num_gpus: int = 2,
                 spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 config: Optional[PagodaConfig] = None) -> None:
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.config = config or PagodaConfig()
        self.engine = Engine()
        self.sessions: List[PagodaSession] = [
            PagodaSession(spec, timing, self.config, engine=self.engine)
            for _ in range(num_gpus)
        ]
        #: host-side estimate of outstanding tasks per GPU
        self._outstanding = [0] * num_gpus
        #: indices of GPUs that died mid-run.
        self.dead_gpus: set = set()
        #: one record per failover (see :meth:`kill_gpu`).
        self.degradation_events: List[DegradationEvent] = []
        #: node-level fault injector (owns ``gpu.die`` specs; per-GPU
        #: faults live in each session's own injector).
        self.faults = None
        if self.config.fault_plan is not None:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(self.engine, self.config.fault_plan)

    @property
    def num_gpus(self) -> int:
        """Number of GPU stacks in this node."""
        return len(self.sessions)

    @property
    def survivors(self) -> List[int]:
        """Indices of GPUs still alive."""
        return [i for i in range(self.num_gpus) if i not in self.dead_gpus]

    def pick_gpu(self) -> int:
        """Shortest-queue-first placement over the *surviving* GPUs."""
        alive = self.survivors
        if not alive:
            raise GpuDeadError("every GPU in the node is dead")
        return min(alive, key=lambda i: self._outstanding[i])

    def kill_gpu(self, gpu_idx: int) -> bool:
        """Declare one GPU dead: its MasterKernel daemons stop and its
        host's spawn/wait loops raise :class:`GpuDeadError` from now
        on.  Refuses to kill the last surviving GPU (there would be
        nothing to fail over to).  Returns whether the kill happened.

        Re-queueing the dead device's in-flight tasks is the driver's
        job (it owns the task bookkeeping) — see
        :func:`run_multi_gpu_pagoda`.
        """
        if gpu_idx in self.dead_gpus or len(self.survivors) <= 1:
            return False
        self.dead_gpus.add(gpu_idx)
        session = self.sessions[gpu_idx]
        session.host.dead = True
        session.shutdown()
        self._outstanding[gpu_idx] = 0
        return True

    def shutdown(self) -> None:
        """Interrupt this component's daemon processes."""
        for session in self.sessions:
            session.shutdown()


def run_multi_gpu_pagoda(tasks: List[TaskSpec],
                         num_gpus: int = 2,
                         spec: Optional[GpuSpec] = None,
                         timing: Optional[TimingModel] = None,
                         config: Optional[PagodaConfig] = None) -> RunStats:
    """Execute ``tasks`` across ``num_gpus`` Pagoda stacks.

    Survives mid-run GPU death: in-flight tasks of a dead device are
    re-spawned on the survivors and the failover is recorded in
    ``stats.meta["degradation_events"]``.
    """
    config = config or PagodaConfig()
    node = MultiGpuPagoda(num_gpus, spec, timing, config)
    engine = node.engine
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
    placements: List[int] = [-1] * len(tasks)
    #: task indices not yet (or no longer) handed to a GPU.
    pending = deque(range(len(tasks)))
    #: per-GPU map of live taskID -> task index, for failover.
    inflight: List[Dict[int, int]] = [{} for _ in range(num_gpus)]
    done = [False] * len(tasks)
    remaining = [len(tasks)]
    finish_time = [0.0]
    spawner_procs: List = []

    def spawner():
        while pending:
            i = pending.popleft()
            task = tasks[i]
            first_spawn = results[i].spawn_time == 0.0
            if config.spawn_gap_ns and first_spawn:
                yield config.spawn_gap_ns
            gpu_idx = node.pick_gpu()
            session = node.sessions[gpu_idx]
            if first_spawn:
                results[i].spawn_time = engine.now
            try:
                task_id = yield from session.host.post(
                    task, results[i],
                    f"incopy.{i}" if config.copy_inputs else None)
            except GpuDeadError:
                # the device died while this spawn was in flight —
                # put the task back and try a survivor
                pending.appendleft(i)
                continue
            placements[i] = gpu_idx
            node._outstanding[gpu_idx] += 1
            inflight[gpu_idx][task_id] = i

    def done_spawning() -> bool:
        return not pending and not any(p.alive for p in spawner_procs)

    spawner_procs.append(engine.spawn(spawner(), "mg-spawner"))

    def fail_over(gpu_idx: int, reason: str = "gpu.die") -> None:
        """Kill one GPU and re-queue its in-flight tasks."""
        if not node.kill_gpu(gpu_idx):
            return
        lost = inflight[gpu_idx]
        inflight[gpu_idx] = {}
        indices = sorted(lost.values())
        for i in indices:
            placements[i] = -1
            pending.append(i)
        node.degradation_events.append(DegradationEvent(
            when_ns=engine.now, gpu_index=gpu_idx,
            resubmitted=len(indices), survivors=tuple(node.survivors),
            reason=reason,
        ))
        if pending and not any(p.alive for p in spawner_procs):
            # the original spawner already finished; re-queue needs a
            # fresh one or the failed-over work would never be issued
            spawner_procs.append(
                engine.spawn(spawner(), f"mg-respawner.{gpu_idx}")
            )

    if node.faults is not None:
        for die in node.faults.time_triggered("gpu.die"):
            target = (die.target or 0) % num_gpus

            def fire(s=die, g=target):
                fail_over(g, reason=s.kind)
                node.faults.record_fired(s, f"gpu{g}")

            engine.call_at(die.at_ns, fire)

    def collector(gpu_idx: int):
        table = node.sessions[gpu_idx].table

        def output_bytes(task_id):
            i = inflight[gpu_idx].pop(task_id, None)
            if i is None or done[i]:
                return 0
            done[i] = True
            remaining[0] -= 1
            node._outstanding[gpu_idx] -= 1
            col, row = table.id_map[task_id]
            spec_done = table.cpu[col][row].spec
            if config.copy_outputs and spec_done is not None:
                return spec_done.output_bytes
            return 0

        # a dead host ends the loop: fail_over re-queued its tasks.
        # Stop on the spawner state sampled after the poll.
        yield from node.sessions[gpu_idx].host.collect(
            done_spawning,
            lambda idle: done_spawning() and remaining[0] == 0,
            output_bytes, f"outcopy.{gpu_idx}.")
        finish_time[0] = max(finish_time[0], engine.now)

    collectors = [engine.spawn(collector(i), f"mg-collector.{i}")
                  for i in range(num_gpus)]
    engine.run(raise_on_deadlock=True)
    for proc in collectors:
        if not proc._done:
            raise RuntimeError("multi-GPU run did not complete")
    makespan = finish_time[0]
    node.shutdown()
    executed = sum(s.master.tasks_executed() for s in node.sessions)
    failed = sum(s.master.tasks_failed() for s in node.sessions)
    clean = config.fault_plan is None and not node.degradation_events
    if clean and executed != len(tasks):
        raise RuntimeError(f"executed {executed} of {len(tasks)} tasks")
    meta = {"placements": placements}
    if not clean:
        meta.update({
            "tasks_failed": failed,
            "degradation_events": [
                {"when_ns": e.when_ns, "gpu_index": e.gpu_index,
                 "resubmitted": e.resubmitted, "survivors": list(e.survivors),
                 "reason": e.reason}
                for e in node.degradation_events
            ],
            "dead_gpus": sorted(node.dead_gpus),
        })
    return RunStats(
        runtime=f"pagoda-x{num_gpus}",
        makespan=makespan,
        results=results,
        copy_time=sum(s.bus.total_busy_time() for s in node.sessions),
        compute_time=max(r.end_time for r in results) if results else 0.0,
        mean_occupancy=sum(
            s.master.useful_occupancy(makespan) for s in node.sessions
        ) / num_gpus,
        meta=meta,
    )
