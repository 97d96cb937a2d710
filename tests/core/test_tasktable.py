"""TaskTable protocol tests (§4.2, Fig. 2)."""

import pytest

from repro.core import (
    READY_COPIED,
    READY_FREE,
    READY_SCHEDULING,
    TaskTable,
)
from repro.core.tasktable import FIRST_TASK_ID
from repro.gpu.phases import Phase
from repro.gpu.timing import DEFAULT_TIMING
from repro.pcie import PcieBus
from repro.sim import Engine
from repro.tasks import TaskResult, TaskSpec


def noop_kernel(task, block_id, warp_id):
    yield Phase(inst=10)


def make_table(columns=2, rows=4):
    eng = Engine()
    bus = PcieBus(eng, DEFAULT_TIMING)
    return eng, TaskTable(eng, bus, columns, rows)


def make_task(name="t"):
    return TaskSpec(name, 32, 1, noop_kernel)


def test_validation():
    eng = Engine()
    bus = PcieBus(eng, DEFAULT_TIMING)
    with pytest.raises(ValueError):
        TaskTable(eng, bus, 0, 4)
    with pytest.raises(ValueError):
        TaskTable(eng, bus, 2, 0)


def test_capacity_and_ids():
    _eng, table = make_table(3, 5)
    assert table.capacity == 15
    assert table.allocate_id() == FIRST_TASK_ID
    assert table.allocate_id() == FIRST_TASK_ID + 1


def test_free_entries_interleave_columns():
    """Consecutive spawns must land on different MTBs (load balance)."""
    _eng, table = make_table(3, 2)
    cols = [table.take_free_entry()[0] for _ in range(3)]
    assert cols == [0, 1, 2]


def test_fill_requires_free_entry():
    _eng, table = make_table()
    col, row = table.take_free_entry()
    table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)
    with pytest.raises(RuntimeError):
        table.fill_cpu_entry(col, row, make_task(), TaskResult(1, "t"), None)


def test_first_task_gets_ready_copied_marker():
    _eng, table = make_table()
    col, row = table.take_free_entry()
    tid = table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)
    assert table.cpu[col][row].ready == READY_COPIED
    assert table.cpu[col][row].task_id == tid
    assert table.id_map[tid] == (col, row)


def test_subsequent_task_carries_pipelining_pointer():
    """Fig. 2b: TB's ready field holds TA's taskID."""
    _eng, table = make_table()
    ca, ra = table.take_free_entry()
    ta = table.fill_cpu_entry(ca, ra, make_task("ta"), TaskResult(0, "ta"), None)
    cb, rb = table.take_free_entry()
    table.fill_cpu_entry(cb, rb, make_task("tb"), TaskResult(1, "tb"), ta)
    assert table.cpu[cb][rb].ready == ta
    assert ta > READY_SCHEDULING  # taskIDs are > 1


def test_copy_entry_to_gpu_mirrors_fields_and_pulses():
    eng, table = make_table()
    col, row = table.take_free_entry()
    spec = make_task()
    table.fill_cpu_entry(col, row, spec, TaskResult(0, "t"), None)
    pulses = []
    table.column_signals[col].wait()._add_waiter(lambda _v: pulses.append(col))
    table.post_entry_to_gpu(col, row)
    eng.run()
    gpu = table.gpu[col][row]
    assert gpu.spec is spec
    assert gpu.ready == READY_COPIED
    assert not table.cpu[col][row].inflight
    assert pulses == [col]
    assert table.entry_copies == 1


def test_mirrors_can_mismatch_mid_flight():
    """Fig. 2b: 'Our design allows for the CPU and GPU TaskTable
    entries to contain mis-matching values.'"""
    eng, table = make_table()
    col, row = table.take_free_entry()
    table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)
    assert table.cpu[col][row].ready == READY_COPIED
    assert table.gpu[col][row].ready == READY_FREE  # not yet visible
    table.post_entry_to_gpu(col, row)
    assert table.gpu[col][row].ready == READY_FREE  # still crossing
    eng.run()
    assert table.gpu[col][row].ready == READY_COPIED


def test_entry_copy_is_posted_not_dma():
    """Spawn-path copies ride the posted-write channel, so the DMA
    engine records no transactions."""
    eng, table = make_table()
    col, row = table.take_free_entry()
    table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)
    table.post_entry_to_gpu(col, row)
    eng.run()
    from repro.pcie.bus import Direction
    assert table.bus.transactions[Direction.H2D] == 0
    assert table.posted_bytes > 0


def test_gpu_complete_and_copy_back_flow():
    eng, table = make_table()
    col, row = table.take_free_entry()
    tid = table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)

    table.post_entry_to_gpu(col, row)
    eng.run()

    def flow():
        # GPU runs and completes the task
        table.gpu_complete(col, row)
        assert table.gpu[col][row].ready == READY_FREE
        # CPU still sees its stale state until a copy-back
        assert table.cpu[col][row].ready == READY_COPIED
        assert tid not in table.finished
        yield from table.copy_back()

    eng.spawn(flow())
    eng.run()
    assert tid in table.finished
    assert table.cpu[col][row].ready == READY_FREE
    assert table.copy_backs == 1
    # the entry is reusable for a new spawn
    locs = set()
    for _ in range(table.capacity):
        loc = table.take_free_entry()
        if loc is None:
            break
        locs.add(loc)
    assert (col, row) in locs


def test_copy_back_is_bulk_d2h():
    eng, table = make_table(4, 8)

    def proc():
        yield from table.copy_back()

    eng.spawn(proc())
    eng.run()
    from repro.pcie.bus import Direction
    assert table.bus.transactions[Direction.D2H] == 1
    assert table.bus.bytes_moved[Direction.D2H] == 4 * 8 * 8


def test_take_free_entry_exhaustion():
    _eng, table = make_table(1, 2)
    for _ in range(2):
        col, row = table.take_free_entry()
        table.fill_cpu_entry(col, row, make_task(), TaskResult(0, "t"), None)
    assert table.take_free_entry() is None


def test_promotion_waiter_notification():
    _eng, table = make_table(4, 2)
    pulses = []
    table.column_signals[3].wait()._add_waiter(lambda v: pulses.append(3))
    table.register_promotion_waiter(0, 1, waiting_col=3)
    table.notify_ready_copied(0, 1)
    assert pulses == [3]
    # notification is one-shot
    table.notify_ready_copied(0, 1)
    assert pulses == [3]


def test_gpu_done_signal_counts():
    _eng, table = make_table()
    assert table.gpu_finished_count() == 0
    table.gpu_complete(0, 0)
    table.gpu_complete(1, 0)
    assert table.gpu_finished_count() == 2
