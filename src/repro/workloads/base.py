"""Workload framework: cost-model conventions and the benchmark base.

Every benchmark (Table 4) provides:

- a **timing kernel**: per-warp generator of
  :class:`~repro.gpu.phases.Phase` / ``BLOCK_SYNC``, parameterized by
  the task's thread geometry so the *same total work* redistributes
  when the evaluation sweeps threads-per-task (Fig. 7) or static fusion
  reshapes blocks to 256 threads (Fig. 9);
- a **functional kernel**: real NumPy computation through the device
  API, validated against a pure reference implementation;
- **characteristics** mirroring Table 3 (registers, sync, shared
  memory, input set).

Cost-model conventions
----------------------
Work is counted in *lane operations* per thread; warps run in lockstep
so a warp's instruction count equals its busiest lane's.  A kernel
emits a handful of phases, each pairing an instruction burst with the
memory traffic it triggers — the per-phase DRAM stall is what makes
occupancy matter (see :class:`repro.gpu.timing.TimingModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.tasks import TaskSpec


def lanes_per_thread(total_elems: int, threads: int) -> int:
    """Elements each thread processes (grid-stride convention)."""
    return max(1, math.ceil(total_elems / threads))


@dataclass
class Workload:
    """One benchmark: factory for its TaskSpecs plus metadata."""

    name: str
    description: str
    regs_per_thread: int
    needs_sync: bool = False
    uses_shared_mem: bool = False
    #: can the task count be known statically? (False for SLUD — which
    #: is why GeMTC and static fusion cannot run it, §6.2/§6.3)
    static_task_count: bool = True
    default_threads: int = 128

    def make_tasks(self, num_tasks: int, threads_per_task: Optional[int] = None,
                   seed: int = 0, irregular: bool = False,
                   functional: bool = False) -> List[TaskSpec]:
        """Build ``num_tasks`` task specs.

        ``irregular`` draws pseudo-random per-task input sizes (the
        §6.3 irregular-task methodology); ``functional`` attaches real
        input arrays and the functional kernel.
        """
        threads = threads_per_task or self.default_threads
        rng = np.random.default_rng(seed)
        return [
            self.make_task(i, threads, rng, irregular, functional)
            for i in range(num_tasks)
        ]

    def make_task(self, index: int, threads: int, rng: np.random.Generator,
                  irregular: bool, functional: bool) -> TaskSpec:
        """Build one TaskSpec (see Workload.make_task)."""
        raise NotImplementedError

    def verify_task(self, task: TaskSpec) -> None:
        """Check a functional task's outputs against the reference
        implementation; raises AssertionError on mismatch."""
        raise NotImplementedError


class WorkloadRegistry:
    """Name -> Workload lookup used by the benchmark harness."""

    def __init__(self) -> None:
        self._workloads: Dict[str, Workload] = {}

    def register(self, workload: Workload) -> Workload:
        """Register a workload under its unique name."""
        if workload.name in self._workloads:
            raise ValueError(f"duplicate workload {workload.name!r}")
        self._workloads[workload.name] = workload
        return workload

    def get(self, name: str) -> Workload:
        """Look a workload up by name."""
        try:
            return self._workloads[name]
        except KeyError:
            raise KeyError(
                f"unknown workload {name!r}; have {sorted(self._workloads)}"
            ) from None

    def names(self) -> List[str]:
        """Sorted names of all recorded series."""
        return sorted(self._workloads)


REGISTRY = WorkloadRegistry()
