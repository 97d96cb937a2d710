"""Runtime invariant checking for a live Pagoda session.

These are the conservation laws that make the schedule trustworthy;
stress tests call :func:`check_session` at arbitrary points mid-run
and after completion.  A violation raises :class:`InvariantViolation`
with a precise description.

The checks only read: an MTB whose WarpTable was never built
(``Mtb.built_warptable`` is ``None``) reads as 31 free slots, and is
not built by checking it.
"""

from __future__ import annotations

from repro.core.runtime import PagodaSession
from repro.core.tasktable import READY_FREE
from repro.core.warptable import WarpTable


class InvariantViolation(AssertionError):
    """A Pagoda conservation law was broken."""


def _busy_warps(mtb) -> int:
    """Executing WarpTable slots (0 when the table was never built)."""
    warptable = mtb.built_warptable
    return warptable.busy_count if warptable is not None else 0


def check_mtb(mtb, deep: bool = False) -> None:
    """Per-MTB invariants: WarpTable/buddy/barrier consistency.

    The default check reads only the maintained counters (free-mask
    popcounts, occupancy tracker, barrier pool arithmetic) so it can
    run inside timed benchmarks without distorting them; ``deep=True``
    additionally walks every WarpTable slot and the full buddy tree.
    """
    warptable = mtb.built_warptable
    busy = _busy_warps(mtb)
    if warptable is not None and not 0 <= busy <= len(warptable):
        raise InvariantViolation(
            f"MTB {mtb.column}: busy_count {busy} out of range"
        )
    if abs(mtb.busy_warps.current - busy) > 0:
        raise InvariantViolation(
            f"MTB {mtb.column}: occupancy tracker says "
            f"{mtb.busy_warps.current} busy warps, WarpTable says {busy}"
        )
    if deep and warptable is not None:
        # every executing slot must reference a live TaskTable entry
        column = mtb.table.gpu[mtb.column]
        for i, slot in enumerate(warptable.slots):
            if slot.exec_flag:
                entry = column.get(slot.e_num)
                if entry is None or entry.spec is None:
                    raise InvariantViolation(
                        f"MTB {mtb.column} slot {i}: executing a task with "
                        "no parameters"
                    )
                if entry.ready == READY_FREE:
                    raise InvariantViolation(
                        f"MTB {mtb.column} slot {i}: executing warp of an "
                        "entry already marked free"
                    )
                if slot.block_id >= entry.spec.num_blocks:
                    raise InvariantViolation(
                        f"MTB {mtb.column} slot {i}: block_id "
                        f"{slot.block_id} out of range"
                    )
    if deep:
        # the buddy tree's structural invariants (full-tree walk)
        try:
            mtb.buddy.check_invariants()
        except AssertionError as exc:
            raise InvariantViolation(
                f"MTB {mtb.column}: buddy allocator corrupt: {exc}"
            ) from exc
    # barrier pool: in-use + available == capacity
    pool = mtb.barriers
    if pool.in_use + pool.available != pool.count:
        raise InvariantViolation(
            f"MTB {mtb.column}: barrier pool leak "
            f"({pool.in_use} + {pool.available} != {pool.count})"
        )


def check_table(table, deep: bool = False) -> None:
    """TaskTable invariants: id_map consistency, no double-free."""
    if deep:
        for task_id, (col, row) in table.id_map.items():
            if not (0 <= col < table.num_columns and 0 <= row < table.rows):
                raise InvariantViolation(
                    f"task {task_id}: id_map points outside the table"
                )
    # host-observed completions must be GPU-completed
    if len(table.finished) > table.gpu_done_signal.pulse_count:
        raise InvariantViolation(
            "host observed more completions than the GPU produced"
        )


def check_session(session: PagodaSession, deep: bool = False) -> None:
    """All invariants of a live (or finished) Pagoda stack."""
    for mtb in session.master.mtbs:
        check_mtb(mtb, deep=deep)
    check_table(session.table, deep=deep)
    # warp conservation across the whole device: busy executor warps
    # never exceed capacity
    total_busy = sum(_busy_warps(m) for m in session.master.mtbs)
    capacity = len(session.master.mtbs) * WarpTable.EXECUTOR_WARPS
    if total_busy > capacity:
        raise InvariantViolation(
            f"{total_busy} busy warps exceed capacity {capacity}"
        )


def check_quiescent(session: PagodaSession, deep: bool = False) -> None:
    """After a drained run: everything returned to the free state."""
    check_session(session, deep=deep)
    for mtb in session.master.mtbs:
        busy = _busy_warps(mtb)
        if busy != 0:
            raise InvariantViolation(
                f"MTB {mtb.column}: {busy} warps still executing after drain"
            )
        mtb.buddy.flush_deferred()
        if mtb.buddy.allocated_bytes != 0:
            raise InvariantViolation(
                f"MTB {mtb.column}: {mtb.buddy.allocated_bytes} bytes of "
                "shared memory leaked"
            )
        if mtb.barriers.in_use != 0:
            raise InvariantViolation(
                f"MTB {mtb.column}: {mtb.barriers.in_use} barrier IDs "
                "leaked"
            )
