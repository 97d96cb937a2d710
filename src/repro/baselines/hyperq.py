"""CUDA-HyperQ baseline: one kernel per task across 32 streams.

This is the strongest stock-CUDA contender (§6.2): the host enables 32
HyperQ connections (``CUDA_DEVICE_MAX_CONNECTIONS=32``), spreads tasks
round-robin over 32 streams, and lets concurrent kernel execution do
the rest.  Its limits are exactly the paper's: at most 32 narrow
kernels in flight (≤16.67 % occupancy for 256-thread tasks), per-launch
driver cost on the host, and threadblock-granularity residency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cuda.runtime import CudaRuntime
from repro.gpu.device import Gpu
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.pcie.bus import Direction, PcieBus
from repro.sim import Engine
from repro.tasks import RunStats, TaskResult, TaskSpec


@dataclass
class HyperQConfig:
    """Knobs for one CUDA-HyperQ run."""

    num_streams: int = 32
    copy_inputs: bool = True
    copy_outputs: bool = True
    spawn_gap_ns: float = 0.0
    #: open-loop arrivals (see PagodaConfig.open_loop)
    open_loop: bool = False
    functional: bool = False


def run_hyperq(tasks: List[TaskSpec],
               spec: Optional[GpuSpec] = None,
               timing: Optional[TimingModel] = None,
               config: Optional[HyperQConfig] = None) -> RunStats:
    """Execute ``tasks`` as individual kernels under HyperQ."""
    config = config or HyperQConfig()
    timing = timing or DEFAULT_TIMING
    engine = Engine()
    gpu = Gpu(engine, spec or titan_x(), timing)
    bus = PcieBus(engine, timing)
    rt = CudaRuntime(engine, gpu, bus, functional=config.functional)
    streams = [rt.create_stream(f"s{i}") for i in range(config.num_streams)]
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]

    def host():
        completions = []
        for i, task in enumerate(tasks):
            if config.spawn_gap_ns and config.open_loop:
                arrival = (i + 1) * config.spawn_gap_ns
                if engine.now < arrival:
                    yield arrival - engine.now
                results[i].spawn_time = arrival
            elif config.spawn_gap_ns:
                yield config.spawn_gap_ns
                results[i].spawn_time = engine.now
            else:
                results[i].spawn_time = engine.now
            stream = streams[i % len(streams)]
            if config.copy_inputs and task.input_bytes:
                yield timing.memcpy_issue_ns  # cudaMemcpyAsync driver call
                rt.memcpy_async(task.input_bytes, Direction.H2D, stream)
            ev = yield from rt.host_launch(task, stream, results[i])
            if config.copy_outputs and task.output_bytes:
                yield timing.memcpy_issue_ns
                ev = rt.memcpy_async(task.output_bytes, Direction.D2H, stream)
            completions.append(ev)
        # cudaDeviceSynchronize: drain every stream
        for stream in streams:
            yield stream.synchronize()

    host_proc = engine.spawn(host(), "hyperq-host")
    engine.run()
    if host_proc.alive:
        raise RuntimeError("HyperQ run did not complete (deadlock?)")
    makespan = engine.now
    if rt.kernels_completed != len(tasks):
        raise RuntimeError(
            f"completed {rt.kernels_completed} of {len(tasks)} kernels"
        )
    return RunStats(
        runtime="cuda-hyperq",
        makespan=makespan,
        results=results,
        copy_time=bus.total_busy_time(),
        compute_time=max(r.end_time for r in results) if results else 0.0,
        mean_occupancy=gpu.mean_occupancy(makespan),
    )
