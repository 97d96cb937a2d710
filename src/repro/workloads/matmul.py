"""MatrixMul (MM): small dense matrix products.

Table 4: refactored from the NVIDIA SDK, with small matrix sizes "to
simulate the behaviour seen in an earthquake engineering simulator...
concurrent simulation of various structures, each of which is
represented by different but small matrix sizes."  One task multiplies
two 64x64 matrices; the CUDA version tiles through shared memory with
barriers between tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import BLOCK_SYNC, Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: Table 3: 64 x 64 matrices
N = 64
TILE = 16
#: lane ops per MAC (load A, load B, fma)
INST_PER_MAC = 0.77
BYTES_PER_ELEM = 4
#: two staged tiles (A and B) of TILE x TILE floats
SMEM_BYTES = 2 * TILE * TILE * BYTES_PER_ELEM


@dataclass
class MatmulWork:
    """Per-task payload: one (n x n) @ (n x n) product."""

    n: int
    a: np.ndarray = None
    b: np.ndarray = None
    out: np.ndarray = None


@phase_table(lambda task, block_id, warp_id: (
    task.work.n, task.shared_mem_bytes, task.needs_sync,
    task.threads_per_block, task.num_blocks))
def matmul_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: one barrier-separated phase per K-tile.

    With shared memory each tile of A/B is loaded once per block;
    without it every MAC streams operands from DRAM (Table 5's
    comparison).
    """
    work: MatmulWork = task.work
    n = work.n
    elems_per_thread = lanes_per_thread(n * n, task.total_threads)
    num_tiles = max(1, n // TILE)
    macs_per_tile = elems_per_thread * TILE
    inst_per_tile = macs_per_tile * INST_PER_MAC
    if task.shared_mem_bytes:
        # each tile: A-tile + B-tile staged once per block
        tile_traffic = 2 * TILE * TILE * BYTES_PER_ELEM / task.total_warps
        chunks_per_tile = 1
    else:
        # operands re-streamed per thread from DRAM: more traffic and
        # the access latency exposed on every operand chunk
        tile_traffic = macs_per_tile * 2 * BYTES_PER_ELEM / 8.0
        chunks_per_tile = 3
    for t in range(num_tiles):
        for _chunk in range(chunks_per_tile):
            yield Phase(inst=inst_per_tile / chunks_per_tile,
                        mem_bytes=tile_traffic / chunks_per_tile)
        if task.needs_sync and t + 1 < num_tiles:
            yield BLOCK_SYNC
    # write back C
    yield Phase(inst=elems_per_thread,
                mem_bytes=n * n * BYTES_PER_ELEM / task.total_warps)


def matmul_func(ctx) -> None:
    """Functional kernel: the matrix product."""
    work: MatmulWork = ctx.args
    work.out[:] = work.a @ work.b


class MatmulWorkload(Workload):
    """MM benchmark (Table 3: 64x64, 30 regs, smem + sync)."""

    def __init__(self) -> None:
        super().__init__(
            name="mm",
            description="Small dense matrix multiplication",
            regs_per_thread=30,
            needs_sync=True,
            uses_shared_mem=True,
            default_threads=256,  # Table 5: MM tasks contain 256 threads
        )

    def make_task(self, index, threads, rng, irregular, functional,
                  n: int = N, use_shared_mem: bool = True):
        """Build one TaskSpec (see Workload.make_task)."""
        if irregular:
            n = int(rng.choice([16, 24, 32, 48, 64]))
        work = MatmulWork(n=n)
        if functional:
            work.a = rng.standard_normal((n, n))
            work.b = rng.standard_normal((n, n))
            work.out = np.zeros((n, n))
        return TaskSpec(
            name=f"mm{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=matmul_kernel,
            needs_sync=True,
            shared_mem_bytes=SMEM_BYTES if use_shared_mem else 0,
            regs_per_thread=self.regs_per_thread,
            input_bytes=2 * n * n * BYTES_PER_ELEM,
            output_bytes=n * n * BYTES_PER_ELEM,
            work=work,
            func=matmul_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: MatmulWork = task.work
        np.testing.assert_allclose(work.out, work.a @ work.b, rtol=1e-10)


MATMUL = REGISTRY.register(MatmulWorkload())
