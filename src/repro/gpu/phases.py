"""Units of simulated kernel work.

A task kernel (Pagoda __device__ function or a CUDA __global__ kernel)
is a generator that yields :class:`Phase` objects — "this warp now
executes ``inst`` warp-instructions touching ``mem_bytes`` of DRAM" —
and barrier markers.  The executing runtime (Pagoda executor warp, CUDA
block context, or CPU core) turns each phase into time on the modelled
resources.

A kernel that is a pure function of a few task fields declares them
with :func:`phase_table`; a run then builds its item sequence once per
distinct key and every warp with that key walks the same tuple by
position (:meth:`repro.gpu.device.Gpu.warp_items`), so a block's like
warps can move through it in lockstep (:mod:`repro.gpu.smm`).

SIMT semantics live in the *cost models* that produce phases: a
divergent warp's phase carries the sum of both branch paths' costs, a
lockstep warp the max over its 32 lanes.
"""

from __future__ import annotations

import math

_INF = math.inf


class Phase:
    """One scheduling quantum of warp work.

    ``inst`` is in warp-instructions (one instruction issued for all 32
    lanes); ``mem_bytes`` is DRAM traffic attributable to the phase.
    Both must be finite and non-negative: a NaN or infinite cost would
    never complete on a processor-sharing pool and would stall every
    job sharing it.

    A value: equal and hashed by its two costs, and never mutated after
    construction — a keyed kernel's phases sit in a table that every
    warp with that key shares.  The SMM reads both fields per phase, so
    it is a plain slotted class: a frozen dataclass costs two
    ``object.__setattr__`` calls per construction.
    """

    __slots__ = ("inst", "mem_bytes")

    def __init__(self, inst: float, mem_bytes: float = 0.0) -> None:
        if not (0 <= inst < _INF and 0 <= mem_bytes < _INF):
            raise ValueError(
                "phase costs must be finite and non-negative, got "
                f"inst={inst!r}, mem_bytes={mem_bytes!r}")
        self.inst = inst
        self.mem_bytes = mem_bytes

    def __eq__(self, other):
        if other.__class__ is Phase:
            return (self.inst, self.mem_bytes) == (other.inst,
                                                   other.mem_bytes)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.inst, self.mem_bytes))

    def __repr__(self) -> str:
        return f"Phase(inst={self.inst!r}, mem_bytes={self.mem_bytes!r})"

    def scaled(self, factor: float) -> "Phase":
        """A phase with both costs multiplied by ``factor``."""
        return Phase(self.inst * factor, self.mem_bytes * factor)


class BlockSync:
    """Marker yielded by kernels to request a threadblock barrier.

    Under native CUDA this is ``__syncthreads()``; under Pagoda it is
    ``syncBlock()`` on the task's named barrier.  The interpreting
    runtime supplies the actual synchronization.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BlockSync()"


BLOCK_SYNC = BlockSync()


class BarrierMismatch(RuntimeError):
    """A block's warps disagree on how many :class:`BlockSync` they pass
    (raised by :class:`repro.cuda.WarpBarrier`)."""


def _reads_nothing(task, block_id, warp_id) -> tuple:
    return ()


def phase_table(key=_reads_nothing):
    """Declare a timing kernel's phase key; decorates the kernel.

    ``key(task, block_id, warp_id)`` returns a hashable value that
    captures every task field, and the block or warp index if read,
    that the kernel's items depend on: two warps with equal keys must
    get equal streams.  The default key suits a kernel that reads
    nothing.  A key of ``None`` leaves that warp on the generator path
    (a delegating kernel whose delegate is unkeyed).
    """
    def declare(kernel):
        kernel.phase_key = key
        return kernel
    return declare


def total_cost(phases) -> Phase:
    """Fold a phase iterable into one aggregate (for CPU execution,
    where barriers are free within a sequential task)."""
    inst = 0.0
    mem = 0.0
    for p in phases:
        if isinstance(p, Phase):
            inst += p.inst
            mem += p.mem_bytes
    return Phase(inst, mem)
