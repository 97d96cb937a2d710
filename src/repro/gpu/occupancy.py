"""The CUDA occupancy calculator (§2 of the paper).

Resident blocks per SMM are limited by four independent resources:
block slots, warp slots, registers, and shared memory.  Occupancy is
resident warps divided by the warp-slot capacity — the paper's §2 worked
examples (0.52 % for one 256-thread task, 16.67 % under HyperQ) fall out
of these functions and are asserted in the test suite.

All results are memoized on ``(spec, threads, regs, smem)``: benchmark
sweeps re-launch thousands of kernels with identical shapes, and
:class:`~repro.gpu.spec.GpuSpec` is a frozen (hashable) dataclass, so
the calculator collapses to a dict hit on the launch hot path.  The
cache is unbounded by design — the key space is the handful of distinct
launch shapes an experiment uses.
"""

from __future__ import annotations

from functools import lru_cache

from repro.gpu.spec import WARP_SIZE, GpuSpec


def warps_per_block(threads_per_block: int) -> int:
    """Warps needed to host a block (threads rounded up to warp size)."""
    if threads_per_block < 1:
        raise ValueError("threads_per_block must be >= 1")
    return -(-threads_per_block // WARP_SIZE)


@lru_cache(maxsize=None)
def registers_per_block(
    spec: GpuSpec, threads_per_block: int, regs_per_thread: int
) -> int:
    """Register file footprint of one block.

    Registers are allocated per warp in units of
    ``spec.register_alloc_unit`` (warp allocation granularity on
    Maxwell/Kepler).
    """
    if regs_per_thread < 0:
        raise ValueError("regs_per_thread must be >= 0")
    per_warp = regs_per_thread * WARP_SIZE
    unit = spec.register_alloc_unit
    per_warp_rounded = -(-per_warp // unit) * unit
    return per_warp_rounded * warps_per_block(threads_per_block)


@lru_cache(maxsize=None)
def blocks_per_smm(
    spec: GpuSpec,
    threads_per_block: int,
    regs_per_thread: int = 32,
    shared_mem_per_block: int = 0,
) -> int:
    """Concurrent resident blocks of this shape on one SMM (0 if none fit)."""
    if threads_per_block > spec.max_threads_per_block:
        return 0
    if shared_mem_per_block > spec.max_shared_mem_per_block:
        return 0
    wpb = warps_per_block(threads_per_block)
    limit_slots = spec.max_blocks_per_smm
    limit_warps = spec.max_warps_per_smm // wpb
    rpb = registers_per_block(spec, threads_per_block, regs_per_thread)
    limit_regs = spec.registers_per_smm // rpb if rpb > 0 else limit_slots
    limit_smem = (
        spec.shared_mem_per_smm // shared_mem_per_block
        if shared_mem_per_block > 0
        else limit_slots
    )
    return max(0, min(limit_slots, limit_warps, limit_regs, limit_smem))


@lru_cache(maxsize=None)
def occupancy(
    spec: GpuSpec,
    threads_per_block: int,
    regs_per_thread: int = 32,
    shared_mem_per_block: int = 0,
    concurrent_blocks: int | None = None,
) -> float:
    """Fraction of the GPU's warp slots filled by blocks of this shape.

    ``concurrent_blocks`` caps the number of blocks available to run
    simultaneously (e.g. 32 narrow tasks under HyperQ each contributing
    one block); ``None`` means unlimited supply.
    """
    per_smm = blocks_per_smm(
        spec, threads_per_block, regs_per_thread, shared_mem_per_block
    )
    resident = per_smm * spec.num_smms
    if concurrent_blocks is not None:
        resident = min(resident, concurrent_blocks)
    wpb = warps_per_block(threads_per_block)
    return (resident * wpb) / spec.total_warp_slots


# ---------------------------------------------------------------------------
# Memo observability (repro.obs: gpu.occupancy.memo_hits / .misses)
# ---------------------------------------------------------------------------

#: The memoized calculator entry points, in reporting order.
_MEMOIZED = (registers_per_block, blocks_per_smm, occupancy)


def memo_stats() -> dict:
    """Aggregate ``lru_cache`` counters across the calculator memos.

    Returned keys: ``hits``, ``misses``, ``size`` (current cached
    entries).  Counters are process-global; call
    :func:`reset_memo_counters` at session start for per-run numbers
    (``repro.core.runtime`` does this when an obs registry is
    attached, so snapshot counts are deterministic).
    """
    infos = [f.cache_info() for f in _MEMOIZED]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "size": sum(i.currsize for i in infos),
    }


def reset_memo_counters() -> None:
    """Clear the calculator memos (and their hit/miss counters)."""
    for f in _MEMOIZED:
        f.cache_clear()
