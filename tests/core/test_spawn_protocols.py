"""Spawn-protocol variants (§4.2.1): pipelined vs two-copies vs the
unsafe single-transaction hazard."""

import pytest

from repro.core import PagodaConfig, PagodaHost, PagodaSession, run_pagoda
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.tasks import TaskResult, TaskSpec


def const_kernel(inst):
    def kernel(task, block_id, warp_id):
        yield Phase(inst=float(inst))
    return kernel


def make_tasks(n, inst=500):
    return [TaskSpec(f"t{i}", 64, 1, const_kernel(inst)) for i in range(n)]


def test_unknown_protocol_rejected():
    session = PagodaSession()
    with pytest.raises(ValueError):
        PagodaHost(session.engine, session.table, session.timing,
                   protocol="telepathy")
    session.shutdown()


def test_two_copies_protocol_completes():
    stats = run_pagoda(make_tasks(60),
                       config=PagodaConfig(protocol="two-copies"))
    assert all(r.end_time > 0 for r in stats.results)


@pytest.mark.parametrize("protocol", ["two-copies", "unsafe-single"])
def test_ablation_protocols_run_no_process_per_task(protocol,
                                                   process_spawns):
    """The ablation copies are timed landings, as the pipelined post
    is: a run spawns no copy process per task."""
    n = 64
    config = PagodaConfig(protocol=protocol, obs=Obs())
    if protocol == "two-copies":
        stats = run_pagoda(make_tasks(n), config=config)
        assert stats.meta["entry_copies"] == n
    else:  # the hazard still corrupts the table, with no process
        with pytest.raises(RuntimeError, match="§4.2.1"):
            run_pagoda(make_tasks(n), config=config)
    assert process_spawns == []


def test_two_copies_needs_no_pipelining_tail():
    """Without the taskID chain, even a single task runs without the
    host's finalize step (its flag arrives in the second write)."""
    session = PagodaSession(config=PagodaConfig(protocol="two-copies"))
    eng, host = session.engine, session.host
    result = TaskResult(0, "t")

    def driver():
        yield from host.task_spawn(make_tasks(1)[0], result)

    eng.spawn(driver())
    eng.run(until=5_000_000)
    assert result.end_time > 0  # ran with no wait()/finalize at all
    assert host._prev_unpromoted is None
    session.shutdown()


def test_two_copies_is_slower_than_pipelined():
    """§4.2.1: 'this doubles the parameter copying overhead,
    significantly reducing Pagoda performance.'"""
    tasks = make_tasks(300, inst=100)
    pipelined = run_pagoda(tasks, config=PagodaConfig())
    doubled = run_pagoda(tasks, config=PagodaConfig(protocol="two-copies"))
    assert doubled.makespan > pipelined.makespan


def test_unsafe_single_transaction_corrupts_tasktable():
    """The flag overtakes the parameters; the scheduler warp picks up
    a garbage kernel pointer — the failure Pagoda's pipelining
    prevents."""
    tasks = make_tasks(4)
    with pytest.raises(RuntimeError, match="§4.2.1|hazard|corruption"):
        run_pagoda(tasks, config=PagodaConfig(protocol="unsafe-single"))


def test_unsafe_single_benign_ordering_masks_the_bug():
    """When the payload happens to land first, the same broken
    protocol *appears* to work — why the bug is insidious on real
    hardware."""
    session = PagodaSession()
    eng, host, table = session.engine, session.host, session.table
    task = make_tasks(1)[0]
    result = TaskResult(0, "t")

    def post() -> None:
        loc = table.take_free_entry()
        table.fill_cpu_entry(loc[0], loc[1], task, result, None)
        # the single transaction's landings in the benign order: the
        # parameters half the mapped-write latency before the flag
        half = host.timing.mapped_write_ns / 2
        eng.call_at_with(eng.now + half, table._land_unsafe_params, loc)
        eng.call_at_with(eng.now + 2 * half, table._land_unsafe_flag, loc)
        eng.call_at_with(eng.now + 2 * half, table._count_unsafe_copy, loc)

    eng.call_at(host.timing.spawn_cpu_ns, post)
    eng.run(until=5_000_000)
    assert result.end_time > 0
    session.shutdown()


def test_serial_psched_ablation_inflates_placement_latency():
    """Algorithm 2's warp-parallel search: without it the scheduler
    places one warp per pSched pass, so a 16-warp task pays ~16 passes
    of placement latency instead of one."""
    def placement_latency(serial):
        session = PagodaSession(config=PagodaConfig(serial_psched=serial))
        eng, host = session.engine, session.host
        result = TaskResult(0, "wide")
        task = TaskSpec("wide", 512, 1, const_kernel(1))

        def driver():
            yield from host.task_spawn(task, result)
            yield from host.wait_all()

        eng.spawn(driver())
        eng.run()
        session.shutdown()
        return result.end_time - result.sched_time

    fast = placement_latency(serial=False)
    slow = placement_latency(serial=True)
    # 16 warps: one pass vs sixteen -> ~15 extra pSched passes
    from repro.gpu.timing import DEFAULT_TIMING
    assert slow - fast >= 10 * DEFAULT_TIMING.psched_pass_ns
