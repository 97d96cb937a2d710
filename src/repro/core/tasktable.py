"""The TaskTable: mirrored CPU/GPU task-spawn structure (§4.2, Fig. 2).

One column per MTB, 32 rows per column.  Each entry carries the task's
launch parameters plus two protocol fields:

``ready``
    0  — entry free / task finished;
    -1 — parameters have been copied to the GPU table;
    1  — the task is being considered for scheduling;
    >1 — a *taskID*: the pipelining pointer naming the previously
    spawned task whose parameters are now known to be complete.

``sched``
    1 — the task may begin scheduling on its MTB; 0 otherwise.

The protocol's partition of authority makes simultaneous updates safe
without PCIe atomics: **the CPU only touches entries whose ready field
is 0; the GPU only touches entries with non-zero ready fields**
(Fig. 2a).  The CPU learns about completions lazily, via aggregate
copy-backs of the whole table (§4.2.2).

The CPU and GPU mirrors are distinct objects here, so tests can observe
the mismatching-values window Fig. 2b calls out.

On hardware both mirrors are one preallocated buffer.  Here a row's
:class:`TaskEntry` is built the first time the row is indexed
(:class:`MirrorColumn`), so a table costs what it runs, not its
capacity: a row that was never built is free (``ready == 0``) and not
in flight, and the walkers that visit whole columns read only the rows
that exist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, zip_longest
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.errors import QuarantineEvent, TaskError
from repro.pcie.bus import Direction, PcieBus, Transfer
from repro.sim import Engine, Process, Signal
from repro.sim.engine import Op
from repro.tasks import TaskResult, TaskSpec

READY_FREE = 0
READY_COPIED = -1
READY_SCHEDULING = 1
FIRST_TASK_ID = 2  # taskIDs are integers > 1 (§4.2.2)

#: Bytes of protocol state copied back per entry in a lazy aggregate
#: update (ready + sched words).
READBACK_BYTES_PER_ENTRY = 8

#: consecutive lethal failures at which a slot is retired from the
#: free list.
QUARANTINE_THRESHOLD = 3


@dataclass(slots=True)
class TaskEntry:
    """One TaskTable slot (either mirror)."""

    ready: int = READY_FREE
    sched: int = 0
    task_id: int = 0
    spec: Optional[TaskSpec] = None
    result: Optional[TaskResult] = None
    #: runtime execution state attached by the MTB scheduler (done
    #: counters, barrier ids, shared-memory offsets).
    exec_state: object = None
    #: CPU-mirror only: parameters are still crossing the bus.  The
    #: host's copy-back skips such entries (it knows which spawns have
    #: completed their transaction from the pipelining pointer).
    inflight: bool = False
    #: structured failure attached when the task died instead of
    #: completing (watchdog kill, kernel exception, brown-out); copied
    #: to the CPU mirror by the next aggregate copy-back so ``wait()``
    #: can re-raise it.
    error: Optional[TaskError] = None

    def protocol_state(self) -> Tuple[int, int]:
        """(ready, sched) — the Fig. 2 state pair."""
        return (self.ready, self.sched)


class MirrorColumn(dict):
    """One mirror column: row -> :class:`TaskEntry`, each entry built
    the first time its row is indexed.

    ``column[row]`` reads like the list it replaces; a present row is a
    C-level dict hit.  Rows outside ``0 <= row < rows`` raise
    :class:`IndexError` instead of growing the column.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: int) -> None:
        # dict.__new__ already made the empty mapping
        self.rows = rows

    def __missing__(self, row: int) -> TaskEntry:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} outside a {self.rows}-row column")
        entry = self[row] = TaskEntry()
        return entry


@lru_cache(maxsize=None)
def _boot_free_order(num_columns: int,
                     rows: int) -> Tuple[Tuple[int, int], ...]:
    """Every slot, interleaved across columns so consecutive spawns
    land on different MTBs (load balance), reversed so ``pop()``
    yields row 0 of each column first.  Shared by every table of this
    geometry; each table copies it into its own free queue."""
    return tuple(reversed([(col, row) for row in range(rows)
                           for col in range(num_columns)]))


class TaskTable:
    """Both mirrors plus the transfer machinery between them.

    ``cpu[col][row]`` and ``gpu[col][row]`` index the two mirrors; the
    entries, like the host free queue's contents, are built on first
    use (see the module docstring).  Nothing the engine sees depends on
    when an entry object was built.
    """

    def __init__(self, engine: Engine, bus: PcieBus, num_columns: int,
                 rows: int = 32, faults=None, obs=None, open_columns=None,
                 free_order: str = "lifo") -> None:
        if num_columns < 1 or rows < 1:
            raise ValueError("table must have at least one column and row")
        self.engine = engine
        self.bus = bus
        #: optional :class:`repro.obs.Obs`.  Hooks: the GPU-mirror slot
        #: occupancy gauge/timeline (entry lands -> +1, completion ->
        #: -1), dirty-row scan counters, and posted-write/copy-back
        #: counters.  ``None`` (default) leaves every path untouched.
        self.obs = obs
        if obs is not None:
            self._obs_slots = obs.gauge("table.slots_occupied")
            self._obs_slots_tl = obs.timeline("table.slots_occupied")
            self._obs_scans = obs.counter("table.dirty_row_scans")
            self._obs_rows_visited = obs.counter("table.dirty_rows_visited")
            self._obs_posts = obs.counter("table.entry_posts")
            self._obs_copy_backs = obs.counter("table.copy_backs")
        #: optional :class:`repro.faults.FaultInjector`; hook points
        #: draw ``pcie.reorder`` (entry posted-write lands late, out of
        #: order w.r.t. later writes) and ``pcie.stale_read`` (a lazy
        #: copy-back observes a completion one aggregate update late).
        self.faults = faults
        self.timing = bus.timing
        #: the posted-write landing and the copy-back's mirror update,
        #: bound once (see post_entry_to_gpu and copy_back).
        self._land_cb = self._land_entry
        self._copied_back_cb = self._copied_back
        self.num_columns = num_columns
        self.rows = rows
        self.cpu: List[MirrorColumn] = [
            MirrorColumn(rows) for _ in range(num_columns)
        ]
        self.gpu: List[MirrorColumn] = [
            MirrorColumn(rows) for _ in range(num_columns)
        ]
        #: per-column change notification on the GPU side (scheduler
        #: warps block here instead of burning poll loops).
        self.column_signals: List[Signal] = [Signal() for _ in range(num_columns)]
        #: per-column dirty-row bitmask: bit ``row`` set means the
        #: entry's protocol words (``ready``/``sched``) changed since
        #: the column's scheduler last visited it.  Every writer that
        #: pulses a column signal also sets the row's bit, so a
        #: scheduler wake drains exactly the changed rows instead of
        #: rescanning all 32 (Algorithm 1's warp-parallel scan reads
        #: the whole column in one warp-wide load; this mask is that
        #: load's one-word software equivalent).
        self._dirty_rows: List[int] = [0] * num_columns
        #: taskID -> (column, row); the indirection behind ready>1.
        self.id_map: Dict[int, Tuple[int, int]] = {}
        self._next_id = FIRST_TASK_ID
        #: columns the host may spawn into.  The legacy shared table
        #: opens every column; a partitioned table opens only the
        #: columns whose MTBs the partition owns, and the elastic
        #: controller moves columns between sibling tables with
        #: :meth:`close_column` / :meth:`open_column`.
        self.open_columns: Set[int] = (
            set(range(num_columns)) if open_columns is None
            else set(open_columns)
        )
        if not self.open_columns <= set(range(num_columns)):
            raise ValueError("open_columns out of range")
        # Host-side free-entry queue in boot order (_boot_free_order);
        # LIFO tables take from the right end, FIFO ones from the left.
        boot_order = _boot_free_order(num_columns, rows)
        if len(self.open_columns) < num_columns:
            boot_order = [slot for slot in boot_order
                          if slot[0] in self.open_columns]
        self._cpu_free: Deque[Tuple[int, int]] = deque(boot_order)
        #: free-entry recycling order.  The legacy host pops the most
        #: recently freed slot (LIFO) — byte-exact with the golden
        #: schedules.  Partitioned tables use FIFO: freed slots go to
        #: the back of the rotation, so steady-state spawns keep the
        #: boot-time column interleave instead of converging onto
        #: whichever MTB completed last (whose single scheduler warp
        #: then serializes the whole pipelined spawn chain).
        if free_order not in ("lifo", "fifo"):
            raise ValueError(f"unknown free_order {free_order!r}")
        self._free_lifo = free_order == "lifo"
        #: taskIDs whose completion the CPU has observed via copy-back.
        self.finished: Set[int] = set()
        #: pulsed on the *GPU* side whenever a task finishes; the host
        #: model uses it to bound wait() timeouts, runtimes use it for
        #: makespan accounting.
        self.gpu_done_signal = Signal()
        self.posted_bytes = 0
        self.copy_backs = 0
        self.entry_copies = 0
        # completions the CPU has not yet pulled back; drained by
        # copy_back() (equivalent to scanning every entry for the
        # occupied -> free transition, without the O(entries) walk).
        self._completed_unreported: List[Tuple[int, int]] = []
        # taskIDs observed finished by copy_back() and not yet handed
        # to a consumer via drain_completions(); spares collectors the
        # per-poll ``finished - copied`` set difference.
        self._newly_finished: List[int] = []
        # columns whose scheduler deferred a promotion because the
        # target entry had not reached ready == -1 yet; keyed by the
        # target location.
        self._promotion_waiters: Dict[Tuple[int, int], List[int]] = {}
        #: taskIDs the GPU side has finished (success *or* failure).
        #: Schedulers consult this when a pipelining pointer names a
        #: task whose slot has already been reused — distinguishing
        #: "predecessor done, promote now" from "predecessor's posted
        #: write has not landed yet, defer" (only distinguishable once
        #: faults can delay posted writes).
        self.gpu_finished: Set[int] = set()
        #: structured failures by taskID, populated by copy-backs;
        #: ``wait()`` re-raises from here.
        self.errors: Dict[int, TaskError] = {}
        #: slots retired after repeated lethal failures (never returned
        #: to the free list again).
        self.quarantined: Set[Tuple[int, int]] = set()
        self.quarantine_events: List[QuarantineEvent] = []
        self._slot_failures: Dict[Tuple[int, int], int] = {}

    # -- geometry / ids ------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of TaskTable entries."""
        return self.num_columns * self.rows

    @property
    def free_queue_len(self) -> int:
        """Host-visible count of reclaimable entries (may include
        entries already popped conservatively; 0 means truly none)."""
        return len(self._cpu_free)

    def post_cost(self, param_bytes: int, transactions: int = 1) -> float:
        """Host-thread cost to issue the posted write(s) for one entry.

        Entry spawns are pipelined mapped-memory stores: the CPU pays
        the posting cost per transaction plus payload wire time; the
        §4.2.1 two-transaction strawman pays it twice — "doubling the
        parameter copying overhead"."""
        return (transactions * self.timing.entry_post_ns
                + param_bytes / self.timing.pcie_bandwidth_bpns)

    def allocate_id(self) -> int:
        """Hand out the next taskID (monotonic, > 1)."""
        tid = self._next_id
        self._next_id += 1
        return tid

    # -- GPU-side dirty-row queue ----------------------------------------------

    def mark_row_dirty(self, col: int, row: int) -> None:
        """Flag a GPU-mirror row for the column's next scheduler visit."""
        self._dirty_rows[col] |= 1 << row

    def dirty_row_count(self, col: int) -> int:
        """Rows currently flagged for the column's scheduler."""
        return self._dirty_rows[col].bit_count()

    def take_dirty_rows(self, col: int) -> int:
        """Claim-and-clear the column's dirty mask (one scheduler wake)."""
        mask = self._dirty_rows[col]
        if mask:
            self._dirty_rows[col] = 0
        if self.obs is not None:
            self._obs_scans.inc()
            if mask:
                self._obs_rows_visited.inc(mask.bit_count())
        return mask

    def take_dirty_rows_above(self, col: int, row: int) -> int:
        """Claim-and-clear only the dirty bits strictly above ``row``.

        Used mid-drain: a promotion resolved during the scan may mark a
        *later* row of the same column schedulable, and the paper's
        single linear pass would still reach that row this iteration.
        """
        mask = self._dirty_rows[col] & -(2 << row)
        if mask:
            self._dirty_rows[col] ^= mask
        return mask

    # -- CPU-side spawn path ---------------------------------------------------

    def take_free_entry(self) -> Optional[Tuple[int, int]]:
        """Pop a CPU-side entry known to be free (ready == 0).

        Quarantined slots are skipped: once a slot has killed
        :data:`QUARANTINE_THRESHOLD` tasks in a row it is presumed bad
        (stuck hardware warp, corrupted shared-memory line) and retired
        rather than handed to yet another victim.
        """
        free = self._cpu_free
        take = free.pop if self._free_lifo else free.popleft
        while free:
            col, row = take()
            if (col, row) in self.quarantined:
                continue
            if col not in self.open_columns:
                continue
            if self.cpu[col][row].ready == READY_FREE:
                return (col, row)
        return None

    def close_column(self, col: int) -> None:
        """Stop handing out entries of one column (partition shrink).

        In-flight tasks already occupying the column are unaffected;
        they drain normally, and their slots simply never re-enter the
        free queue while the column stays closed.
        """
        if col not in self.open_columns:
            return
        self.open_columns.discard(col)
        self._cpu_free = deque(slot for slot in self._cpu_free
                               if slot[0] != col)

    def open_column(self, col: int) -> None:
        """Re-admit one column to the spawn path (partition grow).

        Free, non-quarantined rows of the column rejoin the free queue;
        completions observed while the column was closed are recovered
        here instead of being lost.  A row whose entry was never built
        is free.
        """
        if col < 0 or col >= self.num_columns:
            raise ValueError(f"column {col} out of range")
        if col in self.open_columns:
            return
        self.open_columns.add(col)
        present = set(self._cpu_free)
        cpu = self.cpu[col]
        recovered = []
        for row in range(self.rows):
            slot = (col, row)
            if slot in self.quarantined or slot in present:
                continue
            entry = cpu.get(row)
            if entry is None or (entry.ready == READY_FREE
                                 and not entry.inflight):
                recovered.append(slot)
        # Recovered rows must not all be the *next* slots handed out:
        # that funnels every spawn into the new column, whose single
        # scheduler warp then convoys the whole pipelined spawn chain
        # behind its (blocked-on-placement) scans.  Under LIFO they go
        # to the bottom of the stack.  Under FIFO, parking them at the
        # back would leave the column unused until the rotation wraps
        # all existing slots — instead the whole list is re-interleaved
        # across columns, restoring the boot-time invariant that
        # consecutive handouts land on different MTBs.
        if self._free_lifo:
            self._cpu_free.extendleft(reversed(recovered))
        else:
            by_col: Dict[int, List[Tuple[int, int]]] = {}
            for slot in chain(self._cpu_free, recovered):
                by_col.setdefault(slot[0], []).append(slot)
            merged: Deque[Tuple[int, int]] = deque()
            for rank in zip_longest(*(by_col[c] for c in sorted(by_col))):
                merged.extend(slot for slot in rank if slot is not None)
            self._cpu_free = merged

    def column_busy(self, col: int) -> bool:
        """Whether the column still has GPU-side residency: a posted
        entry in flight or a non-free GPU-mirror slot.  Used to decide
        when a closed column has drained.  The CPU mirror's lazily
        copied-back ``ready`` words are deliberately ignored — they are
        bookkeeping staleness, not residency, and waiting on them could
        outlive the last ``gpu_done_signal`` pulse.  Only built rows
        are read: a row never built is neither."""
        return (any(entry.inflight for entry in self.cpu[col].values())
                or any(entry.ready != READY_FREE
                       for entry in self.gpu[col].values()))

    def fill_cpu_entry(self, col: int, row: int, spec: TaskSpec,
                       result: TaskResult, prev_task_id: Optional[int]) -> int:
        """Write the task's parameters into the CPU mirror (taskSpawn).

        ``prev_task_id`` is the pipelining pointer; ``None`` marks a
        burst-first task (ready = -1 directly, Fig. 2b's TA).
        """
        entry = self.cpu[col][row]
        if entry.ready != READY_FREE:
            raise RuntimeError(
                f"CPU spawning into non-free entry ({col},{row}): "
                f"ready={entry.ready}"
            )
        task_id = self.allocate_id()
        entry.spec = spec
        entry.result = result
        entry.task_id = task_id
        entry.sched = 0
        entry.ready = prev_task_id if prev_task_id is not None else READY_COPIED
        entry.inflight = True
        self.id_map[task_id] = (col, row)
        return task_id

    def post_entry_to_gpu(self, col: int, row: int) -> None:
        """One posted H2D write carrying the entry (§4.2.1's
        steady-state "1 copy per task table entry").

        Entries ride the zero-copy mapped path: back-to-back writes
        serialize only at the posting rate plus payload wire time, and
        become visible after the mapped-write latency, as one engine
        record: a ``_CALL`` of the table's bound-once landing carrying
        ``(col, row)`` as its value."""
        delay = self.timing.mapped_write_ns
        faults = self.faults
        if faults is not None:
            spec = faults.draw("pcie.reorder", f"entry:{col}:{row}")
            if spec is not None:
                # the posted write is reordered past later stores: it
                # becomes visible magnitude_ns beyond the normal
                # mapped-write window, so a successor's pipelining
                # pointer can land first
                delay += spec.magnitude_ns
        engine = self.engine
        engine.call_at_with(engine.now + delay, self._land_cb, (col, row))

    def _land_entry(self, cell: Tuple[int, int]) -> None:
        """The posted write of ``cell = (col, row)`` becomes visible
        in the GPU mirror."""
        col, row = cell
        src = self.cpu[col][row]
        nbytes = (src.spec.param_bytes if src.spec else 0) + READBACK_BYTES_PER_ENTRY
        self.posted_bytes += nbytes
        dst = self.gpu[col][row]
        dst.spec = src.spec
        dst.result = src.result
        dst.task_id = src.task_id
        dst.sched = src.sched
        dst.ready = src.ready
        src.inflight = False
        self.entry_copies += 1
        if self.obs is not None:
            self._obs_entry_landed()
        self.mark_row_dirty(col, row)
        self.notify_ready_copied(col, row)
        self.column_signals[col].pulse()

    def _obs_entry_landed(self) -> None:
        """Obs hook: an entry became occupied on the GPU mirror."""
        now = self.engine.now
        self._obs_posts.inc()
        self._obs_slots.add(now, 1)
        self._obs_slots_tl.add(now, 1)

    def copy_entry_two_transactions(self, col: int, row: int) -> None:
        """The §4.2.1 strawman the pipelined protocol replaces: params
        in one transaction, the ready flag in a second.

        Safe (posted writes stay ordered) but "doubles the parameter
        copying overhead" — the ablation benchmark quantifies it.  In
        this protocol the task needs no promotion: the second write
        delivers (1, 1) directly.  Each transaction is one timed
        landing after the mapped-write latency, the second pushed when
        the first lands.
        """
        self.engine.call_at_with(self.engine.now + self.timing.mapped_write_ns,
                                 self._land_params_copy, (col, row))

    def _land_params_copy(self, cell: Tuple[int, int]) -> None:
        """Transaction 1 of two: the parameters."""
        col, row = cell
        src = self.cpu[col][row]
        dst = self.gpu[col][row]
        dst.spec = src.spec
        dst.result = src.result
        dst.task_id = src.task_id
        dst.ready = READY_COPIED
        dst.sched = 0
        # transaction 2: the ready flag (ordered behind the first)
        self.engine.call_at_with(self.engine.now + self.timing.mapped_write_ns,
                                 self._land_flag_copy, cell)

    def _land_flag_copy(self, cell: Tuple[int, int]) -> None:
        """Transaction 2 of two: the ready flag."""
        col, row = cell
        dst = self.gpu[col][row]
        dst.ready = READY_SCHEDULING
        dst.sched = 1
        self.cpu[col][row].inflight = False
        self.entry_copies += 1
        if self.obs is not None:
            self._obs_entry_landed()
        self.mark_row_dirty(col, row)
        self.column_signals[col].pulse()

    def copy_entry_unsafe_single(self, col: int, row: int) -> None:
        """The broken §4.2.1 variant: parameters and ready flag in ONE
        transaction.  "The PCIe bus does not guarantee that the
        parameters will arrive in the GPU memory before the ready
        flag" — here the flag lands first, and the scheduler warp
        observes a schedulable entry whose kernel pointer and
        arguments are still stale.  Exists to demonstrate the failure
        mode; never used by the real protocol.

        The flag and the parameters are two timed landings half the
        mapped-write latency apart; a third record at the end of the
        transaction counts the copy.
        """
        cell = (col, row)
        engine = self.engine
        half = self.timing.mapped_write_ns / 2
        # flag first: the scheduler can race ahead of the params
        engine.call_at_with(engine.now + half, self._land_unsafe_flag, cell)
        engine.call_at_with(engine.now + 2 * half, self._land_unsafe_params,
                            cell)
        engine.call_at_with(engine.now + 2 * half, self._count_unsafe_copy,
                            cell)

    def _land_unsafe_params(self, cell: Tuple[int, int]) -> None:
        col, row = cell
        src = self.cpu[col][row]
        dst = self.gpu[col][row]
        dst.spec = src.spec
        dst.result = src.result
        dst.task_id = src.task_id
        src.inflight = False
        self.column_signals[col].pulse()

    def _land_unsafe_flag(self, cell: Tuple[int, int]) -> None:
        col, row = cell
        dst = self.gpu[col][row]
        dst.ready = READY_SCHEDULING
        dst.sched = 1
        self.mark_row_dirty(col, row)
        self.column_signals[col].pulse()

    def _count_unsafe_copy(self, _cell: Tuple[int, int]) -> None:
        self.entry_copies += 1

    def push_state_to_gpu(self, col: int, row: int,
                          expect_task_id: Optional[int] = None) -> "_PushState":
        """Host update of just the protocol words of one entry (used by
        the idle-host finalization of the last task): the host's own
        posting store, then the mapped-write latency, then the landing.

        ``expect_task_id`` guards the landing: while this write crosses
        the bus, the GPU scheduler may promote the same entry itself (a
        successor's pipelining pointer resolving concurrently with the
        idle-host promotion).  If by landing time the entry no longer
        holds that task at ``(READY_COPIED, 0)``, the write is dropped —
        re-arming a ``sched`` flag the device already consumed would
        schedule the task twice and corrupt its in-flight exec state.
        """
        return _PushState(self, col, row, expect_task_id)

    # -- CPU-side lazy aggregate copy-back (§4.2.2) -----------------------------

    def copy_back(self) -> Transfer:
        """Bulk D2H copy of every entry's protocol state.

        Returns the :class:`~repro.pcie.bus.Transfer`; when it lands,
        its first joiner — enrolled here — updates the CPU mirror,
        records finished tasks and returns freed entries to the free
        queue, before anyone joining the copy-back resumes.
        """
        nbytes = self.capacity * READBACK_BYTES_PER_ENTRY
        transfer = self.bus.transfer(nbytes, Direction.D2H)
        transfer._waiters.append(self._copied_back_cb)
        return transfer

    def _copied_back(self, _value=None) -> None:
        """The aggregate copy-back landed in the CPU mirror."""
        self.copy_backs += 1
        if self.obs is not None:
            self._obs_copy_backs.inc()
        drained, self._completed_unreported = self._completed_unreported, []
        faults = self.faults
        for col, row in drained:
            gpu = self.gpu[col][row]
            cpu = self.cpu[col][row]
            if cpu.inflight:  # pragma: no cover - params precede completion
                # the GPU mirror does not yet reflect this spawn;
                # adopting its stale ready==0 would double-book the
                # entry.
                self._completed_unreported.append((col, row))
                continue
            if faults is not None and faults.draw(
                    "pcie.stale_read", f"entry:{col}:{row}") is not None:
                # the aggregate D2H read raced the GPU's protocol-word
                # store and returned the pre-completion value; the
                # completion is observed one copy-back late (it is
                # *not* lost — the next aggregate update sees it)
                self._completed_unreported.append((col, row))
                continue
            cpu.ready = gpu.ready
            cpu.sched = gpu.sched
            if gpu.error is not None:
                cpu.error = gpu.error
                self.errors[cpu.task_id] = gpu.error
            self.finished.add(cpu.task_id)
            self._newly_finished.append(cpu.task_id)
            if (col, row) not in self.quarantined and col in self.open_columns:
                self._cpu_free.append((col, row))

    def drain_completions(self) -> List[int]:
        """TaskIDs newly observed finished since the last drain.

        Completions accumulate as copy-backs observe them (in
        completion-observation order); draining hands them over exactly
        once.  Collector threads iterate this instead of recomputing
        the ``finished - copied`` set difference on every poll.
        """
        if not self._newly_finished:
            return []
        out = self._newly_finished
        self._newly_finished = []
        return out

    # -- GPU-side promotion coordination ---------------------------------------

    def register_promotion_waiter(self, target_col: int, target_row: int,
                                  waiting_col: int) -> None:
        """A scheduler found its entry's predecessor not yet at
        ready == -1; re-wake it when that predecessor gets there."""
        self._promotion_waiters.setdefault(
            (target_col, target_row), []
        ).append(waiting_col)

    def notify_ready_copied(self, col: int, row: int) -> None:
        """An entry just transitioned to ready == -1; wake deferred
        promoters targeting it."""
        waiters = self._promotion_waiters.pop((col, row), None)
        if waiters:
            for waiting_col in waiters:
                self.column_signals[waiting_col].pulse()

    # -- GPU-side completion ------------------------------------------------

    def gpu_complete(self, col: int, row: int,
                     error: Optional[TaskError] = None) -> None:
        """Last executor warp frees the entry (Algorithm 1 line 42).

        With ``error`` the task *failed*: the slot is still freed (the
        protocol words must not wedge the column), but the failure is
        recorded for the next copy-back, the slot's lethal-failure
        streak advances, and a streak past :data:`QUARANTINE_THRESHOLD`
        retires the slot from the free list for good.
        """
        entry = self.gpu[col][row]
        entry.ready = READY_FREE
        entry.sched = 0
        # drop the execution bookkeeping: a brown-out sweeping the
        # column later must not mistake a reused slot's stale ExecState
        # for a resident task
        entry.exec_state = None
        if error is not None:
            error.column, error.row = col, row
            entry.error = error
            self.record_slot_failure(col, row)
        else:
            entry.error = None
            self._slot_failures.pop((col, row), None)
        self.gpu_finished.add(entry.task_id)
        if self.obs is not None:
            now = self.engine.now
            self._obs_slots.add(now, -1)
            self._obs_slots_tl.add(now, -1)
        self._completed_unreported.append((col, row))
        self.gpu_done_signal.pulse((col, row))

    def record_slot_failure(self, col: int, row: int) -> None:
        """Advance a slot's lethal-failure streak; quarantine at
        :data:`QUARANTINE_THRESHOLD`."""
        key = (col, row)
        count = self._slot_failures.get(key, 0) + 1
        self._slot_failures[key] = count
        if count >= QUARANTINE_THRESHOLD and key not in self.quarantined:
            self.quarantined.add(key)
            self.quarantine_events.append(
                QuarantineEvent(self.engine.now, col, row, count)
            )

    def gpu_finished_count(self) -> int:
        """Tasks whose completion the GPU side has recorded."""
        return self.gpu_done_signal.pulse_count


class _PushState(Op):
    """:meth:`TaskTable.push_state_to_gpu` as a callback object: two
    timer records (the posting store, the mapped-write latency), then
    the guarded landing."""

    __slots__ = ("table", "col", "row", "expect_task_id")

    def __init__(self, table: TaskTable, col: int, row: int,
                 expect_task_id: Optional[int]) -> None:
        Process.__init__(self, table.engine, None, "push_state")
        self.table = table
        self.col = col
        self.row = row
        self.expect_task_id = expect_task_id

    def _begin(self) -> None:
        # the host's own posting store
        self._after(self.table.timing.entry_post_ns, _PushState._posted)

    def _posted(self) -> None:
        self._after(self.table.timing.mapped_write_ns, _PushState._land)

    def _land(self) -> None:
        table = self.table
        col, row = self.col, self.row
        src = table.cpu[col][row]
        dst = table.gpu[col][row]
        expect = self.expect_task_id
        if expect is None or (dst.task_id == expect and dst.protocol_state()
                              == (READY_COPIED, 0)):
            dst.ready = src.ready
            dst.sched = src.sched
            table.mark_row_dirty(col, row)
            table.column_signals[col].pulse()
        self._finish(None)
