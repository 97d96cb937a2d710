"""Mandelbrot (MB): irregular per-pixel escape-time fractal tasks.

Table 4: "Each pixel value of the image is calculated in parallel;
however, the required computation per pixel is highly irregular."  One
task renders one 64x64 tile of the set; different tasks land on
regions of wildly different iteration depth, which is the paper's
canonical irregular workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: image tile per task (Table 3: 64 x 64 images)
TILE = 64
MAX_ITERS = 256
#: lane operations per escape-time iteration (complex mul + add + test);
#: calibrated so the HyperQ copy fraction matches Table 3 (24%)
INST_PER_ITER = 2.1
#: lockstep penalty: a warp runs as long as its deepest lane
DIVERGENCE_FACTOR = 1.5
#: bytes written per pixel (iteration count as uint16)
BYTES_PER_PIXEL = 2


@dataclass
class MandelWork:
    """Per-task payload: the viewport this tile renders."""

    x0: float
    y0: float
    scale: float
    #: expected mean iteration count (drives the cost model without
    #: rendering at timing time)
    mean_iters: float
    out: np.ndarray = None  # functional output (TILE*TILE uint16)


def reference_tile(work: MandelWork) -> np.ndarray:
    """Vectorized escape-time reference for one tile."""
    ys, xs = np.mgrid[0:TILE, 0:TILE]
    c = (work.x0 + xs * work.scale) + 1j * (work.y0 + ys * work.scale)
    z = np.zeros_like(c)
    iters = np.zeros(c.shape, dtype=np.uint16)
    alive = np.ones(c.shape, dtype=bool)
    for i in range(MAX_ITERS):
        z[alive] = z[alive] ** 2 + c[alive]
        escaped = alive & (np.abs(z) > 2.0)
        iters[escaped] = i + 1
        alive &= ~escaped
    iters[alive] = MAX_ITERS
    return iters.ravel()


@phase_table(lambda task, block_id, warp_id: (
    task.work.mean_iters, task.threads_per_block, task.num_blocks))
def mandel_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: pixels strided across threads; warp cost is the
    per-task mean depth inflated by the lockstep divergence factor."""
    work: MandelWork = task.work
    px_per_thread = lanes_per_thread(TILE * TILE, task.total_threads)
    inst_per_px = work.mean_iters * INST_PER_ITER * DIVERGENCE_FACTOR
    mem_total = TILE * TILE * BYTES_PER_PIXEL / task.total_warps
    # four phases: iterate in chunks, write results as they retire
    phases = 4
    for _ in range(phases):
        yield Phase(
            inst=px_per_thread * inst_per_px / phases,
            mem_bytes=mem_total / phases,
        )


def mandel_func(ctx) -> None:
    """Functional kernel: each block renders the whole tile (tasks are
    single-block); stored for verification."""
    work: MandelWork = ctx.args
    work.out[:] = reference_tile(work)


class MandelbrotWorkload(Workload):
    """MB benchmark (Table 3: 64x64 images, 28 registers, no sync)."""

    def __init__(self) -> None:
        super().__init__(
            name="mb",
            description="Mandelbrot fractal tiles (irregular)",
            regs_per_thread=28,
        )

    def make_task(self, index, threads, rng, irregular, functional):
        # Table 3 classifies MB as irregular: viewport draws are
        # heavy-tailed in iteration depth even in the default mode
        # (deep-zoom boundary tiles vs fast-escaping exterior tiles)
        """Build one TaskSpec (see Workload.make_task)."""
        sigma = 1.3 if irregular else 1.0
        mean_iters = float(rng.lognormal(np.log(20), sigma))
        mean_iters = min(max(mean_iters, 2.0), MAX_ITERS)
        work = MandelWork(
            x0=float(rng.uniform(-2.0, 0.5)),
            y0=float(rng.uniform(-1.2, 1.2)),
            scale=float(rng.uniform(1e-4, 2e-2)),
            mean_iters=mean_iters,
            out=np.zeros(TILE * TILE, dtype=np.uint16) if functional else None,
        )
        return TaskSpec(
            name=f"mb{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=mandel_kernel,
            regs_per_thread=self.regs_per_thread,
            input_bytes=64,  # viewport parameters only
            output_bytes=TILE * TILE * BYTES_PER_PIXEL,
            work=work,
            func=mandel_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        expected = reference_tile(task.work)
        np.testing.assert_array_equal(task.work.out, expected)


MANDELBROT = REGISTRY.register(MandelbrotWorkload())
