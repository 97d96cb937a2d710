"""Image Convolution (CONV): small blur/edge filters over image tiles.

Table 4: "Convolution filters are used in blur and edge detection
mechanisms in image processing.  Each filter operation represents a
task, which operates in parallel across pixels."  One task convolves
one 128x128 grayscale image with a 5x5 kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: Table 3: 128 x 128 images
IMG = 128
KSIZE = 5
#: lane ops per filter tap (load + MAC + bounds check)
INST_PER_TAP = 1.1
#: grayscale bytes per pixel
BYTES_PER_PIXEL = 1


@dataclass
class ConvWork:
    """Per-task payload: one image and its filter."""

    img: int  # image side length
    image: np.ndarray = None  # (img, img) float64 for exactness
    kernel2d: np.ndarray = None  # (KSIZE, KSIZE)
    out: np.ndarray = None


def reference_convolve(image: np.ndarray, kernel2d: np.ndarray) -> np.ndarray:
    """Zero-padded 'same' 2D correlation (the CUDA SDK filter)."""
    k = kernel2d.shape[0]
    pad = k // 2
    padded = np.pad(image, pad)
    out = np.zeros_like(image, dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            out += kernel2d[dy, dx] * padded[
                dy:dy + image.shape[0], dx:dx + image.shape[1]
            ]
    return out


@phase_table(lambda task, block_id, warp_id: (
    task.work.img, task.threads_per_block, task.num_blocks))
def conv_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: pixels strided over threads, taps accumulated."""
    work: ConvWork = task.work
    total_px = work.img * work.img
    px_per_thread = lanes_per_thread(total_px, task.total_threads)
    total_inst = px_per_thread * KSIZE * KSIZE * INST_PER_TAP
    # reads the (cached) neighbourhood + writes the result
    mem_total = 2 * total_px * BYTES_PER_PIXEL / task.total_warps
    phases = 4
    for _ in range(phases):
        yield Phase(inst=total_inst / phases, mem_bytes=mem_total / phases)


def conv_func(ctx) -> None:
    """Functional kernel: 2-D convolution of the image."""
    work: ConvWork = ctx.args
    work.out[:] = reference_convolve(work.image, work.kernel2d)


class ConvolutionWorkload(Workload):
    """CONV benchmark (Table 3: 128x128 images, 25 regs, regular)."""

    def __init__(self) -> None:
        super().__init__(
            name="conv",
            description="5x5 image convolution filters",
            regs_per_thread=25,
        )

    def make_task(self, index, threads, rng, irregular, functional,
                  img: int = IMG):
        """Build one TaskSpec (see Workload.make_task)."""
        if irregular:
            img = int(rng.choice([32, 48, 64, 96, 128]))
        work = ConvWork(img=img)
        if functional:
            work.image = rng.standard_normal((img, img))
            work.kernel2d = rng.standard_normal((KSIZE, KSIZE))
            work.out = np.zeros((img, img))
        return TaskSpec(
            name=f"conv{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=conv_kernel,
            regs_per_thread=self.regs_per_thread,
            input_bytes=img * img * BYTES_PER_PIXEL + KSIZE * KSIZE * 4,
            output_bytes=img * img * BYTES_PER_PIXEL,
            work=work,
            func=conv_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: ConvWork = task.work
        expected = reference_convolve(work.image, work.kernel2d)
        np.testing.assert_allclose(work.out, expected, rtol=1e-10)


CONVOLUTION = REGISTRY.register(ConvolutionWorkload())
