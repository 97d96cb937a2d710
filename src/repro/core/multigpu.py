"""Multi-GPU Pagoda — the extension §8 leaves open.

The paper "virtualizes the compute resources of a *single* GPU at the
granularity of a warp" (§7's contrast with Sengupta et al.).  This
module extends the runtime across several GPUs on one node: each GPU
runs its own MasterKernel + TaskTable over its own PCIe link, and the
host load-balances ``taskSpawn`` calls by shortest observed queue.

Everything else is unchanged — the per-GPU stack is exactly
:class:`~repro.core.runtime.PagodaSession`, sharing one simulated
clock.

The node is driven by :class:`repro.serve.TaskServer` (``ServeConfig(
num_gpus=n)``), the one multi-GPU driver.

**Graceful degradation**: a GPU can die mid-run (an injected
``gpu.die`` fault or an explicit :meth:`MultiGpuPagoda.kill_gpu`).
The node marks the device's host dead — its spawn/wait loops raise
:class:`~repro.core.errors.GpuDeadError` instead of spinning — and the
server puts every request that was in flight on the dead device back
at its queue front for the survivors.  Throughput degrades
proportionally; the run never deadlocks, and each failover is
recorded as a :class:`~repro.core.errors.DegradationEvent`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import DegradationEvent, GpuDeadError
from repro.core.runtime import PagodaConfig, PagodaSession
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.sim import Engine


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
        #: node-level fault injector: the server arms its ``gpu.die``
        #: specs; per-GPU faults live in each session's own injector.
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

        Re-queueing the dead device's in-flight work is the driver's
        job (it owns the request bookkeeping) — see
        :meth:`repro.serve.server.TaskServer._fail_over`.
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
