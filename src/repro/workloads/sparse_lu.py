"""Sparse LU Decomposition (SLUD): task-parallel multifrontal solver.

Table 4: "a sparse matrix solver using [the] multifrontal method.  A
matrix is divided into multiple regular sub-matrices.  Sparse LUD is
represented as a task-based application owing to the irregularity in
the computation size among different iterations of a parallel loop."

This module implements a right-looking *blocked* sparse LU over 32x32
tiles (the Table 3 input unit).  Factoring tile column ``k`` spawns

- one ``lu`` task on the diagonal tile,
- ``trsm`` tasks for each present tile in row/column ``k``,
- ``gemm`` update tasks for every (i, j) with both factors present —
  and updates create **fill-in**, so the total task count is only
  discovered as factorization proceeds.  That is exactly why GeMTC
  (which "needs the number of tasks to be pre-defined", §6.2) and
  static fusion cannot run SLUD.

The functional path really factorizes: ``L @ U`` must reproduce the
original matrix, and the integration tests drive it wave-by-wave
through the simulated runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.gpu.phases import Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload

#: Table 3: 32 x 32 sub-matrices
TILE = 32
#: lane ops per multiply-accumulate in the tile kernels
INST_PER_MAC = 4.0
BYTES_PER_ELEM = 8  # float64 tiles


@dataclass
class SparseLuProblem:
    """A block-sparse matrix being factorized in place.

    ``tiles`` maps (i, j) -> TILE x TILE array.  After factorization,
    the lower triangle (including fill-in) holds L (unit diagonal
    implied) and the upper triangle holds U.
    """

    nb: int
    tiles: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)

    @classmethod
    def generate(cls, nb: int, density: float = 0.3,
                 seed: int = 0, functional: bool = False) -> "SparseLuProblem":
        """Banded-plus-random block pattern, diagonally dominant so the
        pivot-free factorization is stable."""
        rng = np.random.default_rng(seed)
        problem = cls(nb=nb)
        for i in range(nb):
            for j in range(nb):
                present = (
                    i == j or abs(i - j) == 1
                    or rng.random() < density
                )
                if present:
                    if functional:
                        tile = rng.standard_normal((TILE, TILE))
                        if i == j:
                            tile += np.eye(TILE) * TILE * nb
                        problem.tiles[(i, j)] = tile
                    else:
                        problem.tiles[(i, j)] = None
        return problem

    def dense(self) -> np.ndarray:
        """Assemble the full matrix (functional problems only)."""
        n = self.nb * TILE
        full = np.zeros((n, n))
        for (i, j), tile in self.tiles.items():
            full[i * TILE:(i + 1) * TILE, j * TILE:(j + 1) * TILE] = tile
        return full


# ---------------------------------------------------------------------------
# Tile kernels (functional)
# ---------------------------------------------------------------------------

def lu_tile(a: np.ndarray) -> None:
    """In-place LU of one tile, no pivoting (diagonally dominant)."""
    n = a.shape[0]
    for k in range(n):
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])


def trsm_lower(lu: np.ndarray, b: np.ndarray) -> None:
    """Solve L X = B in place (unit-lower L from a factored tile)."""
    n = lu.shape[0]
    for k in range(n):
        b[k + 1:, :] -= np.outer(lu[k + 1:, k], b[k, :])


def trsm_upper(lu: np.ndarray, b: np.ndarray) -> None:
    """Solve X U = B in place (upper U from a factored tile)."""
    n = lu.shape[0]
    for k in range(n):
        b[:, k] /= lu[k, k]
        b[:, k + 1:] -= np.outer(b[:, k], lu[k, k + 1:])


def gemm_update(a: np.ndarray, lik: np.ndarray, ukj: np.ndarray) -> None:
    """A_ij -= L_ik @ U_kj."""
    a -= lik @ ukj


# ---------------------------------------------------------------------------
# Task generation (the dynamic DAG, emitted in dependency waves)
# ---------------------------------------------------------------------------

_OP_MACS = {
    "lu": TILE ** 3 / 3.0,
    "trsm": TILE ** 3 / 2.0,
    "gemm": float(TILE ** 3),
}


@phase_table(lambda task, block_id, warp_id: (
    task.work["op"], task.threads_per_block, task.num_blocks))
def _slud_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: the op's MAC count spread over the task threads,
    with the three operand tiles streamed from DRAM."""
    op = task.work["op"]
    macs = _OP_MACS[op]
    inst = macs * INST_PER_MAC / task.total_threads
    n_operands = {"lu": 1, "trsm": 2, "gemm": 3}[op]
    mem = n_operands * TILE * TILE * BYTES_PER_ELEM / task.total_warps
    phases = 2
    for _ in range(phases):
        yield Phase(inst=inst / phases, mem_bytes=mem / phases)


def _make_func(op: str, args: tuple):
    ops = {"lu": lu_tile, "trsm_l": trsm_lower, "trsm_u": trsm_upper,
           "gemm": gemm_update}

    def func(ctx):
        ops[op](*args)

    return func


def generate_waves(problem: SparseLuProblem, threads: int = 128,
                   functional: bool = False,
                   regs_per_thread: int = 17) -> List[List[TaskSpec]]:
    """Emit the factorization as dependency waves of TaskSpecs.

    Each wave's tasks are mutually independent; wave ``w`` may only run
    after wave ``w-1`` completes.  Fill-in tiles are materialized as
    the symbolic pattern evolves, so ``sum(len(w) for w in waves)`` is
    not predictable from the input pattern alone.
    """
    waves: List[List[TaskSpec]] = []
    tiles = problem.tiles
    counter = [0]

    def make(op: str, func_op: str, args: tuple) -> TaskSpec:
        counter[0] += 1
        return TaskSpec(
            name=f"slud-{op}{counter[0]}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=_slud_kernel,
            regs_per_thread=regs_per_thread,
            # the sparse matrix is uploaded once up front and factored in
            # place on the device; per-task transfers are nil
            # (Table 3: SLUD spends just 3% in data copy)
            input_bytes=0,
            output_bytes=0,
            work={"op": op},
            func=_make_func(func_op, args) if functional else None,
        )

    for k in range(problem.nb):
        diag = tiles[(k, k)]
        waves.append([make("lu", "lu", (diag,))])
        panel: List[TaskSpec] = []
        rows = [i for i in range(k + 1, problem.nb) if (i, k) in tiles]
        cols = [j for j in range(k + 1, problem.nb) if (k, j) in tiles]
        for i in rows:
            panel.append(make("trsm", "trsm_u", (diag, tiles[(i, k)])))
        for j in cols:
            panel.append(make("trsm", "trsm_l", (diag, tiles[(k, j)])))
        if panel:
            waves.append(panel)
        updates: List[TaskSpec] = []
        for i in rows:
            for j in cols:
                if (i, j) not in tiles:  # fill-in discovered at runtime
                    tiles[(i, j)] = (
                        np.zeros((TILE, TILE)) if functional else None
                    )
                updates.append(
                    make("gemm", "gemm",
                         (tiles[(i, j)], tiles[(i, k)], tiles[(k, j)]))
                )
        if updates:
            waves.append(updates)
    return waves


def reference_lu_check(problem: SparseLuProblem, original: np.ndarray,
                       rtol: float = 1e-8) -> None:
    """Verify that the factored tiles reproduce the original matrix."""
    full = problem.dense()
    lower = np.tril(full, -1) + np.eye(full.shape[0])
    upper = np.triu(full)
    np.testing.assert_allclose(lower @ upper, original, rtol=rtol,
                               atol=1e-6 * np.abs(original).max())


class SparseLuWorkload(Workload):
    """SLUD benchmark (Table 3: 32x32 tiles, 17 regs, irregular,
    task count unknown statically)."""

    def __init__(self) -> None:
        super().__init__(
            name="slud",
            description="Blocked sparse LU with dynamic fill-in tasks",
            regs_per_thread=17,
            static_task_count=False,
        )

    def make_tasks(self, num_tasks, threads_per_task=None, seed=0,
                   irregular=False, functional=False):
        """Flattened wave order, sized to approximate ``num_tasks``.

        The exact count emerges from fill-in — callers must use
        ``len()`` of the result, never assume ``num_tasks``.
        """
        threads = threads_per_task or self.default_threads
        nb = max(3, round((3 * num_tasks) ** (1 / 3)))
        problem = SparseLuProblem.generate(nb, seed=seed,
                                           functional=functional)
        waves = generate_waves(problem, threads, functional,
                               self.regs_per_thread)
        return [task for wave in waves for task in wave]

    def make_task(self, index, threads, rng, irregular, functional):
        """Build one TaskSpec (see Workload.make_task)."""
        raise NotImplementedError("SLUD tasks come from generate_waves")

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        raise NotImplementedError("verify via reference_lu_check")


SPARSE_LU = REGISTRY.register(SparseLuWorkload())
