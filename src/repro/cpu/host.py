"""Multi-core host CPU with a throughput-based task service model."""

from __future__ import annotations

from repro.gpu.phases import Phase
from repro.gpu.timing import TimingModel
from repro.sim import Engine, FifoResource


class HostCpu:
    """``num_cores`` identical cores behind a FIFO run queue.

    Service time for a task folds its whole phase stream (cf.
    :meth:`repro.tasks.TaskSpec.cpu_cost`) into compute + memory
    components; a CPU core retires ``cpu_core_warpinst_per_ns``
    warp-instruction-equivalents per ns and streams memory at
    ``cpu_mem_bandwidth_bpns``.
    """

    def __init__(self, engine: Engine, timing: TimingModel,
                 num_cores: int = 20, name: str = "cpu") -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.engine = engine
        self.timing = timing
        self.num_cores = num_cores
        self.cores = FifoResource(engine, num_cores, name)

    def service_time(self, cost: Phase) -> float:
        """Time for one core to execute an aggregate task cost."""
        compute = cost.inst / self.timing.cpu_core_warpinst_per_ns
        memory = cost.mem_bytes / self.timing.cpu_mem_bandwidth_bpns
        # Compute and streaming loads overlap on an OoO core; the longer
        # component dominates.
        return max(compute, memory)
