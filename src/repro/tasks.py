"""Task descriptions shared by every runtime in the reproduction.

A *task* is the paper's unit of work: a narrow kernel (typically
< 500 threads) with its launch geometry, resource needs, and two
executable views:

- a **timing kernel** — per-warp generator yielding
  :class:`~repro.gpu.phases.Phase` and ``BLOCK_SYNC`` markers; drives
  the simulated GPU/CPU clocks;
- an optional **functional kernel** — NumPy computation run through the
  device API (:class:`repro.core.device_api.DeviceContext` for Pagoda)
  so correctness can be checked against reference implementations.

Runtimes (Pagoda, CUDA-HyperQ, GeMTC, static fusion, PThreads) all
consume the same :class:`TaskSpec`, which is what makes the paper's
apples-to-apples comparison reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.gpu.occupancy import warps_per_block
from repro.gpu.phases import Phase, total_cost

#: Timing-kernel signature: (task, block_id, warp_id) -> phase generator.
TimingKernel = Callable[["TaskSpec", int, int], Generator]


@dataclass
class TaskSpec:
    """Everything a runtime needs to launch one task (Table 1's
    ``taskSpawn`` arguments plus the cost/functional models)."""

    name: str
    threads_per_block: int
    num_blocks: int
    kernel: TimingKernel
    shared_mem_bytes: int = 0
    needs_sync: bool = False
    regs_per_thread: int = 32
    input_bytes: int = 0
    output_bytes: int = 0
    #: Size of the TaskTable entry payload (kernel pointer + args).
    param_bytes: int = 128
    #: Workload-specific payload (input sizes, seeds, arrays).
    work: Any = None
    #: Functional computation; signature ``func(device_ctx) -> None``.
    func: Optional[Callable[[Any], None]] = None
    #: CPU inefficiency multiplier: how many x more work the scalar CPU
    #: port does per lane-op than the SIMT kernel (1.0 for typical
    #: numeric code; >1 for GPU-friendly bit manipulation like DES,
    #: where scalar permutations cost far more than warp-wide table
    #: lookups).
    cpu_inst_factor: float = 1.0
    #: Scheduling priority (extension beyond the paper): higher values
    #: are picked first when a scheduler warp has several schedulable
    #: TaskTable rows.  0 = the paper's FIFO-by-row behaviour.
    priority: int = 0
    #: Warps per threadblock (threads rounded up to 32).  Derived from
    #: ``threads_per_block`` once at construction: schedulers and
    #: per-warp loops read it millions of times per run, and launch
    #: geometry is immutable after a task is spawned.
    warps_per_block: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.warps_per_block = warps_per_block(self.threads_per_block)

    @property
    def total_warps(self) -> int:
        """Warps across all of the task's threadblocks."""
        return self.warps_per_block * self.num_blocks

    @property
    def total_threads(self) -> int:
        """Threads across all of the task's threadblocks."""
        return self.threads_per_block * self.num_blocks

    def warp_phases(self, block_id: int, warp_id: int) -> Generator:
        """A fresh phase stream for one warp of one block.

        The GPU runtimes go through
        :meth:`repro.gpu.device.Gpu.warp_items` instead, which hands
        every warp with one phase key the same table, walked by
        position; this is the kernel's own view.
        """
        return self.kernel(self, block_id, warp_id)

    def cpu_cost(self) -> Phase:
        """Aggregate cost of running the whole task on one CPU core.

        Sums every warp's phases; barriers are free in a sequential
        execution.  A keyed kernel's warps share one aggregate per
        phase key, added in the same per-warp order.
        """
        kernel = self.kernel
        phase_key = getattr(kernel, "phase_key", None)
        aggs = {}
        inst = 0.0
        mem = 0.0
        for block in range(self.num_blocks):
            for warp in range(self.warps_per_block):
                key = phase_key(self, block, warp) if phase_key else None
                agg = aggs.get(key)
                if agg is None:
                    agg = total_cost(kernel(self, block, warp))
                    if key is not None:
                        aggs[key] = agg
                inst += agg.inst
                mem += agg.mem_bytes
        return Phase(inst * self.cpu_inst_factor, mem)


@dataclass
class TaskResult:
    """Per-task timestamps collected by every runtime.

    All times are simulated nanoseconds.  ``latency`` is the paper's
    Fig. 10 metric: spawn-to-completion as observed by the host.
    """

    task_id: int
    name: str
    spawn_time: float = 0.0
    post_time: float = 0.0  # host finished posting the entry (PCIe store)
    sched_time: float = 0.0  # when a runtime picked it for execution
    start_time: float = 0.0  # first warp began executing
    end_time: float = 0.0  # last warp finished
    #: ``file:line`` of the taskSpawn call (diagnostics for TaskError)
    spawn_site: str = ""

    @property
    def latency(self) -> float:
        """Spawn-to-completion time (the Fig. 10 metric)."""
        return self.end_time - self.spawn_time

    @property
    def exec_time(self) -> float:
        """First-warp-start to last-warp-end duration."""
        return self.end_time - self.start_time


@dataclass
class RunStats:
    """Outcome of one experiment run under one runtime."""

    runtime: str
    makespan: float  # total wall time incl. data copies
    results: list = field(default_factory=list)
    copy_time: float = 0.0  # total PCIe busy time
    compute_time: float = 0.0  # makespan minus exposed copy-only time
    mean_occupancy: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        """Average task latency over all results."""
        if not self.results:
            return 0.0
        return sum(r.latency for r in self.results) / len(self.results)

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile over all tasks (e.g. 50, 99)."""
        if not self.results:
            raise ValueError("no results")
        if not 0 <= pct <= 100:
            raise ValueError("percentile must be in [0, 100]")
        lats = sorted(r.latency for r in self.results)
        index = min(len(lats) - 1, int(round(pct / 100 * (len(lats) - 1))))
        return lats[index]

    def speedup_over(self, other: "RunStats") -> float:
        """This runtime's speedup relative to ``other`` (same workload)."""
        if self.makespan <= 0:
            raise ValueError("non-positive makespan")
        return other.makespan / self.makespan
