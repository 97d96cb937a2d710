"""BeamFormer (BF): delay-and-sum beamforming over sensor channels.

Table 4: "a signal processing method used to control the direction of
signal reception... Many independent signal beams receive inputs
asynchronously.  Processing individual inputs generates a narrow
task."  One task forms one beam from ``N_CHANNELS`` delayed, weighted
channel signals of width 2K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: Table 3: signals of width 2K
N_SIM = 2048
N_CHANNELS = 64
MAX_DELAY = 16
#: lane ops per channel-sample (delayed load + weight MAC + index math);
#: calibrated so the HyperQ copy fraction matches Table 3 (13%)
INST_PER_CHANNEL = 7.5
BYTES_PER_SAMPLE = 4


@dataclass
class BeamFormerWork:
    """Per-task payload: one beam's channel data, delays, weights."""

    n_sim: int
    channels: np.ndarray = None  # (N_CHANNELS, n_sim)
    delays: np.ndarray = None  # int per channel
    weights: np.ndarray = None
    out: np.ndarray = None


def reference_beamform(channels: np.ndarray, delays: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Delay-and-sum: out[t] = sum_c w[c] * x[c, t - d[c]] (guarded)."""
    n = channels.shape[1]
    out = np.zeros(n)
    for c in range(channels.shape[0]):
        d = int(delays[c])
        out[d:] += weights[c] * channels[c, : n - d]
    return out


@phase_table(lambda task, block_id, warp_id: (
    task.work.n_sim, task.threads_per_block, task.num_blocks))
def beamformer_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: each thread accumulates its samples over all
    channels; channel data streams from DRAM."""
    work: BeamFormerWork = task.work
    per_thread = lanes_per_thread(work.n_sim, task.total_threads)
    total_inst = per_thread * N_CHANNELS * INST_PER_CHANNEL
    mem_total = (work.n_sim * N_CHANNELS * BYTES_PER_SAMPLE) / task.total_warps
    phases = 4
    for _ in range(phases):
        yield Phase(inst=total_inst / phases, mem_bytes=mem_total / phases)


def beamformer_func(ctx) -> None:
    """Functional kernel: delay-and-sum the channels."""
    work: BeamFormerWork = ctx.args
    work.out[:] = reference_beamform(work.channels, work.delays, work.weights)


class BeamFormerWorkload(Workload):
    """BF benchmark (Table 3: width-2K signals, 34 regs, no sync)."""

    def __init__(self) -> None:
        super().__init__(
            name="bf",
            description="Delay-and-sum beamforming",
            regs_per_thread=34,
        )

    def make_task(self, index, threads, rng, irregular, functional):
        """Build one TaskSpec (see Workload.make_task)."""
        n_sim = N_SIM
        if irregular:
            n_sim = int(rng.integers(N_SIM // 8, N_SIM + 1))
        work = BeamFormerWork(n_sim=n_sim)
        if functional:
            work.channels = rng.standard_normal((N_CHANNELS, n_sim))
            work.delays = rng.integers(0, MAX_DELAY, N_CHANNELS)
            work.weights = rng.standard_normal(N_CHANNELS)
            work.out = np.zeros(n_sim)
        return TaskSpec(
            name=f"bf{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=beamformer_kernel,
            regs_per_thread=self.regs_per_thread,
            # channel buffers are GPU-resident ring buffers; each task
            # ships only the beam's fresh input snapshot (keeps Table
            # 3's 13% copy share: BF is the most compute-bound GPU
            # benchmark)
            input_bytes=n_sim * BYTES_PER_SAMPLE,
            output_bytes=n_sim * BYTES_PER_SAMPLE,
            work=work,
            func=beamformer_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: BeamFormerWork = task.work
        expected = reference_beamform(work.channels, work.delays, work.weights)
        np.testing.assert_allclose(work.out, expected, rtol=1e-10)


BEAMFORMER = REGISTRY.register(BeamFormerWorkload())
