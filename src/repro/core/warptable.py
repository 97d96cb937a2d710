"""The per-MTB WarpTable (§4.1, Table 2).

Each MTB keeps one slot per executor warp (31 slots) in shared memory.
The scheduler warp writes a slot to hand a task warp to an executor;
the executor resets ``exec`` when done.  Fields follow Table 2 exactly.

Free-slot bookkeeping is a single integer bitmask — the software twin
of Algorithm 2's hardware ``__ballot`` of exec flags, where the
scheduler warp's 32 threads each read one slot and vote in one
register.  Bit ``i`` set means slot ``i`` is free, so:

- ``free_count`` / ``busy_count`` are one popcount (the seed rescanned
  every slot);
- the executor-slot pick in ``pSched`` is one lowest-set-bit
  extraction per placement instead of materializing the free list.

Wakeups are targeted: the scheduler starts the dispatched slot's own
executor (``repro.core.masterkernel._Executor``), instead of
broadcasting to all 31 executors and letting the 30 losers re-arm (the
seed's dominant wasted work).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Signal


@dataclass(slots=True)
class WarpSlot:
    """One executor warp's bookkeeping entry (Table 2)."""

    #: warp ID of the warp *within the current task* — drives getTid().
    warp_id: int = 0
    #: TaskTable entry (row) being executed; lets the warp fetch args.
    e_num: int = -1
    #: shared-memory starting offset for the warp's threadblock.
    sm_index: int = 0
    #: named-barrier ID for the block (valid only if the task syncs).
    bar_id: int = -1
    #: block index within the task (derived; the real system derives it
    #: from warp_id and the task geometry).
    block_id: int = 0
    #: set by the scheduler to start execution; reset by the executor.
    exec_flag: bool = False


class WarpTable:
    """31 slots + free-mask index + the free-slot signal."""

    EXECUTOR_WARPS = 31

    def __init__(self, slots: int = EXECUTOR_WARPS) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = [WarpSlot() for _ in range(slots)]
        #: bit i set <=> slot i free (the ballot word).
        self._free_mask = (1 << slots) - 1
        #: pulsed by executors when they free their slot; the scheduler
        #: blocks on it when pSched finds no free warps.
        self.free_signal = Signal()

    def __len__(self) -> int:
        return len(self.slots)

    # -- free-slot index ----------------------------------------------------

    @property
    def free_count(self) -> int:
        """Executor warps with a clear exec flag (one popcount)."""
        return self._free_mask.bit_count()

    @property
    def busy_count(self) -> int:
        """Executor warps currently running task work."""
        return len(self.slots) - self._free_mask.bit_count()

    def lowest_free(self) -> int:
        """Lowest-index free slot, or -1 when all are executing."""
        mask = self._free_mask
        if not mask:
            return -1
        return (mask & -mask).bit_length() - 1

    def free_slots(self):
        """Indices of executor warps with a clear exec flag (a
        materialized view of the free mask, ascending)."""
        return _bits(self._free_mask)

    def busy_slots(self):
        """Indices of executor warps whose exec flag is set (the
        complement of :meth:`free_slots`, ascending)."""
        return _bits(~self._free_mask & ((1 << len(self.slots)) - 1))

    # -- dispatch / retire ----------------------------------------------------

    def dispatch(self, slot_index: int, warp_id: int, e_num: int,
                 sm_index: int, bar_id: int, block_id: int) -> None:
        """Scheduler-side: fill a slot and set its exec flag
        (Algorithm 2 lines 9-14; the threadfence is implicit in the
        simulator's sequential slot update)."""
        slot = self.slots[slot_index]
        if slot.exec_flag:
            raise RuntimeError(f"slot {slot_index} is already executing")
        slot.warp_id = warp_id
        slot.e_num = e_num
        slot.sm_index = sm_index
        slot.bar_id = bar_id
        slot.block_id = block_id
        slot.exec_flag = True
        self._free_mask &= ~(1 << slot_index)

    def retire(self, slot_index: int) -> None:
        """Executor-side: mark the warp free (Algorithm 1 line 43)."""
        slot = self.slots[slot_index]
        if not slot.exec_flag:
            raise RuntimeError(f"slot {slot_index} is not executing")
        slot.exec_flag = False
        slot.e_num = -1
        self._free_mask |= 1 << slot_index
        self.free_signal.pulse(slot_index)


def _bits(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
