"""Unit tests for FifoResource, ProcessorSharing, and Store."""

import pytest

from repro.sim import Engine, FifoResource, ProcessorSharing, Store
from repro.sim.engine import _CALL


# --------------------------------------------------------------------------
# FifoResource
# --------------------------------------------------------------------------

def test_fifo_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        FifoResource(eng, 0)


def test_fifo_grants_up_to_capacity_immediately():
    eng = Engine()
    res = FifoResource(eng, 2)
    granted = []

    def proc(i):
        yield res.acquire()
        granted.append((i, eng.now))
        yield 10.0
        res.release()

    for i in range(3):
        eng.spawn(proc(i))
    eng.run()
    times = dict((i, t) for i, t in granted)
    assert times[0] == 0.0 and times[1] == 0.0
    assert times[2] == 10.0


def test_fifo_queue_order():
    eng = Engine()
    res = FifoResource(eng, 1)
    order = []

    def proc(i):
        yield res.acquire()
        order.append(i)
        yield 1.0
        res.release()

    for i in range(4):
        eng.spawn(proc(i))
    eng.run()
    assert order == [0, 1, 2, 3]


def test_fifo_release_idle_raises():
    eng = Engine()
    res = FifoResource(eng, 1)
    with pytest.raises(RuntimeError):
        res.release()


def test_fifo_use_helper():
    eng = Engine()
    res = FifoResource(eng, 1)
    ends = []

    def proc():
        yield from res.use(5.0)
        ends.append(eng.now)

    eng.spawn(proc())
    eng.spawn(proc())
    eng.run()
    assert ends == [5.0, 10.0]


def test_fifo_queue_length():
    eng = Engine()
    res = FifoResource(eng, 1)
    res.acquire()
    res.acquire()
    res.acquire()
    assert res.queue_length == 2


# --------------------------------------------------------------------------
# ProcessorSharing
# --------------------------------------------------------------------------

def _consume_and_record(eng, ps, amount, log, tag):
    def proc():
        yield ps.consume(amount)
        log.append((tag, eng.now))
    eng.spawn(proc())


def test_ps_single_job_runs_at_cap():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
    log = []
    _consume_and_record(eng, ps, 10.0, log, "a")
    eng.run()
    # one job capped at 1 unit/ns -> 10 ns
    assert log == [("a", pytest.approx(10.0))]


def test_ps_under_capacity_jobs_all_run_at_cap():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
    log = []
    for tag in "abcd":
        _consume_and_record(eng, ps, 10.0, log, tag)
    eng.run()
    # 4 jobs, pool rate 4, cap 1 -> all run at 1 -> all done at t=10
    assert all(t == pytest.approx(10.0) for _tag, t in log)


def test_ps_oversubscribed_shares_rate():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
    log = []
    for i in range(8):
        _consume_and_record(eng, ps, 10.0, log, i)
    eng.run()
    # 8 jobs share rate 4 -> each gets 0.5 -> 20 ns
    assert all(t == pytest.approx(20.0) for _tag, t in log)


def test_ps_late_arrival_slows_existing_job():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0, per_job_cap=1.0)
    log = []

    def first():
        yield ps.consume(10.0)
        log.append(("first", eng.now))

    def second():
        yield 5.0
        yield ps.consume(10.0)
        log.append(("second", eng.now))

    eng.spawn(first())
    eng.spawn(second())
    eng.run()
    # first: 5 ns alone (5 work) + shares 0.5 for remaining 5 work -> t=15
    # second: 0.5 rate until t=15 (5 work done), then alone -> t=20
    assert dict(log) == {
        "first": pytest.approx(15.0),
        "second": pytest.approx(20.0),
    }


def test_ps_zero_amount_completes_immediately():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    ev = ps.consume(0.0)
    assert ev.fired


def test_ps_negative_amount_rejected():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    with pytest.raises(ValueError):
        ps.consume(-1.0)


@pytest.mark.parametrize("amount", [float("nan"), float("inf")])
def test_ps_non_finite_amount_rejected(amount):
    """A NaN tag never compares due and an infinite one never
    completes; either used to wedge the pool (a pool given 5.0, NaN and
    3.0 finished only the 3.0 job and drove the clock to NaN)."""
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    done = ps.consume(5.0)
    with pytest.raises(ValueError, match="finite"):
        ps.consume(amount)
    with pytest.raises(ValueError, match="finite"):
        ps.consume_after(2.0, amount)
    eng.run()
    assert done.fired and eng.now == pytest.approx(5.0)
    assert ps.active_jobs == 0


def test_ps_consume_after_negative_delay_rejected():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    eng.call_at(10.0, lambda: None)
    eng.run()
    for delay in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="delay"):
            ps.consume_after(delay, 4.0)
    assert ps.active_jobs == 0 and not eng._queue


def test_ps_consume_after_zero_delay_joins_now():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    eng.call_at(10.0, lambda: None)
    eng.run()
    ev = ps.consume_after(0.0, 4.0)
    assert ps.active_jobs == 1
    eng.run()
    assert ev.fired and eng.now == pytest.approx(14.0)


def test_ps_records_carry_their_value_not_a_closure():
    """Every record a pool leaves on the engine is a ``_CALL`` record
    whose payload is the pool's bound-once timer or join callback; the
    timer version or join instant travels as the record's value.
    Identical schedules cannot show a slide back to a closure per
    record; this can."""
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    first = ps.consume(4.0)        # immediate arrival: timer v1 at 4
    second = ps.consume(4.0)       # supersedes it: timer v2 at 8
    late = [ps.consume_after(10.0, 1.0)
            for _ in range(2)]     # one deferred batch: a join at 10
    records = sorted(eng._queue)
    assert [r[2] for r in records] == [_CALL] * 3
    assert [(r[0], r[3], r[4]) for r in records] == [
        (4.0, ps._timer_cb, 1),
        (8.0, ps._timer_cb, 2),
        (10.0, ps._join_cb, 10.0),
    ]
    assert records[0][3] is ps._timer_cb and records[2][3] is ps._join_cb
    # the superseded timer still pops and counts one event, and
    # completes nothing
    eng.run(max_events=1)
    assert eng.event_count == 1 and eng.now == 4.0
    assert not first.fired and not second.fired
    assert ps.active_jobs == 2 and len(eng._queue) == 2
    eng.run()
    assert first.fired and second.fired and all(ev.fired for ev in late)
    assert eng.now == pytest.approx(12.0) and not ps._arrivals
    # v2 at 8, the join at 10, the batch's timer at 12
    assert eng.event_count == 4


def test_call_at_with_pushes_one_call_record_and_guards_the_clock():
    eng = Engine()
    got = []
    eng.call_at_with(5.0, got.append, "v")
    assert eng._queue == [(5.0, 1, _CALL, got.append, "v")]
    eng.run()
    assert got == ["v"] and eng.event_count == 1
    for when in (4.0, float("nan")):
        with pytest.raises(ValueError, match="cannot schedule"):
            eng.call_at_with(when, got.append, None)


def test_entry_landings_and_remote_arrivals_carry_their_value():
    """A posted TaskTable entry lands, and a request delivered to a
    fleet node arrives, through a ``_CALL`` record of a callback bound
    once per table / node; ``(col, row)`` and the ``rid`` travel as the
    record's value, so no closure is built per task."""
    from repro.cluster.fabric import FORWARD, Message
    from repro.cluster.node import NodeShard
    from repro.cluster.topology import ROUTER, NodeSpec
    from repro.core import TaskTable
    from repro.gpu.timing import DEFAULT_TIMING
    from repro.pcie import PcieBus
    from repro.serve.slo import SloClass
    from repro.tasks import TaskResult, TaskSpec

    eng = Engine()
    table = TaskTable(eng, PcieBus(eng, DEFAULT_TIMING), 2, 4)
    spec = TaskSpec("t", 32, 1, None)
    col, row = table.take_free_entry()
    table.fill_cpu_entry(col, row, spec, TaskResult(0, "t"), None)
    table.post_entry_to_gpu(col, row)
    (record,) = eng._queue
    assert record[0] == DEFAULT_TIMING.mapped_write_ns
    assert record[2:] == (_CALL, table._land_cb, (col, row))
    assert record[3] is table._land_cb
    eng.run()
    assert table.gpu[col][row].spec is spec and table.entry_copies == 1

    node = NodeShard(NodeSpec("n0"), [("t", SloClass())])
    deliveries = [Message(FORWARD, ROUTER, "n0", 0.0, at_ns, rid,
                          (rid, "t", spec))
                  for rid, at_ns in ((7, 1_000.0), (8, 2_000.0))]
    node.step(500.0, deliveries)   # ends before either arrival
    records = sorted(r for r in node.engine._queue
                     if 1_000.0 <= r[0] <= 2_000.0)
    assert [r[0] for r in records] == [1_000.0, 2_000.0]
    assert [r[2:] for r in records] == [(_CALL, node._arrive_cb, 7),
                                        (_CALL, node._arrive_cb, 8)]
    assert all(r[3] is node._arrive_cb for r in records)


def test_ps_invalid_rate_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        ProcessorSharing(eng, rate=0.0)


def test_ps_work_conservation():
    """Total service delivered equals total work submitted."""
    eng = Engine()
    ps = ProcessorSharing(eng, rate=2.0, per_job_cap=1.0)
    log = []
    amounts = [3.0, 7.0, 1.0, 12.0, 5.0]
    for i, amount in enumerate(amounts):
        _consume_and_record(eng, ps, amount, log, i)
    end = eng.run()
    # The makespan can never beat total_work / rate nor the longest job
    # at its cap.
    lower = max(sum(amounts) / 2.0, max(amounts) / 1.0)
    assert end >= lower - 1e-6
    assert len(log) == len(amounts)


def test_ps_utilization_full_when_saturated():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=2.0, per_job_cap=1.0)
    log = []
    for i in range(4):
        _consume_and_record(eng, ps, 10.0, log, i)
    eng.run()
    assert ps.utilization() == pytest.approx(1.0, rel=1e-6)


def test_ps_utilization_half_when_single_capped_job():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=2.0, per_job_cap=1.0)
    log = []
    _consume_and_record(eng, ps, 10.0, log, "a")
    eng.run()
    assert ps.utilization() == pytest.approx(0.5, rel=1e-6)


def test_ps_sequential_batches():
    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0, per_job_cap=1.0)
    log = []

    def proc():
        yield ps.consume(4.0)
        log.append(eng.now)
        yield ps.consume(6.0)
        log.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert log == [pytest.approx(4.0), pytest.approx(10.0)]


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------

def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    store.put("x")
    got = []

    def proc():
        item = yield store.get()
        got.append(item)

    eng.spawn(proc())
    eng.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get()
        got.append((eng.now, item))

    def producer():
        yield 5.0
        store.put("late")

    eng.spawn(consumer())
    eng.spawn(producer())
    eng.run()
    assert got == [(5.0, "late")]


def test_store_fifo_both_sides():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        eng.spawn(consumer(i))

    def producer():
        yield 1.0
        for item in "abc":
            store.put(item)

    eng.spawn(producer())
    eng.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_store_len():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_ps_no_livelock_on_tiny_residual_work():
    """Regression: a job whose remaining work lands just above epsilon
    on a high-rate pool must still complete (the ETA floor prevents
    the same-instant timer livelock)."""
    eng = Engine()
    ps = ProcessorSharing(eng, rate=336.0)  # DRAM-like rate
    finished = []

    def job(amount, delay):
        yield delay
        yield ps.consume(amount)
        finished.append(amount)

    # amounts chosen to produce awkward float residues under sharing
    for i, amount in enumerate([1e-7, 0.1, 336_000.33, 7.77, 1e-3]):
        eng.spawn(job(amount, i * 0.333))
    eng.run(max_events=100_000)
    assert len(finished) == 5
    assert eng.event_count < 100_000  # terminated, not capped


def test_ps_many_jobs_high_churn_terminates():
    import numpy as np

    def job(ps, done, amount, start):
        yield start
        yield ps.consume(amount)
        done.append(amount)

    for n_jobs in (300, 2_000):
        rng = np.random.default_rng(2)
        eng = Engine()
        ps = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
        done = []
        for _ in range(n_jobs):
            eng.spawn(job(ps, done, float(rng.uniform(0.01, 50)),
                          float(rng.uniform(0, 100))))
        eng.run(max_events=1_000_000)
        assert len(done) == n_jobs


def test_fifo_use_releases_server_on_interrupt():
    """A holder interrupted mid-``use()`` must hand its server back.

    Regression test: the seed's ``use()`` had no try/finally, so
    ``gen.close()`` at the ``yield`` leaked the server and starved
    every later acquirer of a capacity-1 resource.
    """
    eng = Engine()
    res = FifoResource(eng, 1)
    ends = []

    def holder():
        yield from res.use(100.0)
        ends.append(("holder", eng.now))  # pragma: no cover

    def successor():
        yield 5.0
        yield from res.use(2.0)
        ends.append(("successor", eng.now))

    victim = eng.spawn(holder())
    eng.spawn(successor())
    eng.call_after(10.0, victim.interrupt)
    eng.run()
    assert ends == [("successor", 12.0)]
    assert res.in_use == 0
