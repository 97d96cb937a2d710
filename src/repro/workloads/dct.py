"""DCT8x8 (DCT): blockwise discrete cosine transform of images.

Table 4: surveillance streams pipe images from many cameras; each
128x128 image is one task, transformed in 8x8 blocks (the JPEG/MPEG
kernel from the CUDA SDK).  The CUDA version stages 8x8 tiles through
shared memory and synchronizes between the row and column passes —
Table 3 marks DCT as benefiting from shared memory and requiring
threadblock synchronization; it is also the most copy-bound benchmark
(81 % data copy under HyperQ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import BLOCK_SYNC, Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: Table 3: 128 x 128 images
IMG = 128
BLOCK = 8
#: lane ops per pixel per 1-D pass (8 MACs + staging); calibrated so
#: the HyperQ copy fraction matches Table 3 (81%: DCT is copy-bound)
INST_PER_PASS = 3.0
#: float32 pixels in and out (the SDK kernel operates on floats)
BYTES_PER_PIXEL = 4
#: shared memory: one tile row of 8x8 blocks staged per threadblock
SMEM_BYTES = 8 * 1024


def dct_matrix(n: int = BLOCK) -> np.ndarray:
    """Orthonormal DCT-II basis matrix."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat


_DCT_M = dct_matrix()


@dataclass
class DctWork:
    """Per-task payload: one image."""

    img: int
    image: np.ndarray = None
    out: np.ndarray = None


def reference_dct(image: np.ndarray) -> np.ndarray:
    """Blockwise 2-D DCT: D @ block @ D.T for every 8x8 block."""
    h, w = image.shape
    out = np.zeros_like(image, dtype=np.float64)
    for y in range(0, h, BLOCK):
        for x in range(0, w, BLOCK):
            blk = image[y:y + BLOCK, x:x + BLOCK]
            out[y:y + BLOCK, x:x + BLOCK] = _DCT_M @ blk @ _DCT_M.T
    return out


@phase_table(lambda task, block_id, warp_id: (
    task.work.img, task.shared_mem_bytes, task.threads_per_block,
    task.num_blocks))
def dct_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: row pass, barrier, column pass.

    With shared memory the tile is staged once (one DRAM round trip);
    without it the column pass re-reads from DRAM (double traffic) —
    the effect Table 5 quantifies.
    """
    work: DctWork = task.work
    total_px = work.img * work.img
    px_per_thread = lanes_per_thread(total_px, task.total_threads)
    pass_inst = px_per_thread * INST_PER_PASS
    traffic = total_px * BYTES_PER_PIXEL / task.total_warps
    if task.shared_mem_bytes:
        yield Phase(inst=pass_inst, mem_bytes=traffic)  # load + row pass
        yield BLOCK_SYNC
        yield Phase(inst=pass_inst, mem_bytes=traffic)  # col pass + store
    else:
        # every 8x8 block's operands come back from DRAM: double the
        # traffic and expose the access latency on each sub-pass
        for _pass in range(2):
            for _chunk in range(4):
                yield Phase(inst=pass_inst / 4, mem_bytes=2 * traffic / 4)
            yield BLOCK_SYNC


def dct_func(ctx) -> None:
    """Functional kernel: blockwise DCT of the image."""
    work: DctWork = ctx.args
    work.out[:] = reference_dct(work.image)


class DctWorkload(Workload):
    """DCT benchmark (Table 3: 128x128, 33 regs, smem + sync)."""

    def __init__(self) -> None:
        super().__init__(
            name="dct",
            description="Blockwise 8x8 DCT of camera images",
            regs_per_thread=33,
            needs_sync=True,
            uses_shared_mem=True,
            default_threads=64,  # Table 5: DCT tasks have 64 threads
        )

    def make_task(self, index, threads, rng, irregular, functional,
                  use_shared_mem: bool = True):
        """Build one TaskSpec (see Workload.make_task)."""
        img = IMG
        if irregular:
            img = int(rng.choice([32, 64, 96, 128]))
        work = DctWork(img=img)
        if functional:
            work.image = rng.standard_normal((img, img))
            work.out = np.zeros((img, img))
        return TaskSpec(
            name=f"dct{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=dct_kernel,
            needs_sync=True,
            shared_mem_bytes=SMEM_BYTES if use_shared_mem else 0,
            regs_per_thread=self.regs_per_thread,
            input_bytes=img * img * BYTES_PER_PIXEL,
            output_bytes=img * img * BYTES_PER_PIXEL,
            work=work,
            func=dct_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: DctWork = task.work
        np.testing.assert_allclose(work.out, reference_dct(work.image),
                                   rtol=1e-10)


DCT = REGISTRY.register(DctWorkload())
